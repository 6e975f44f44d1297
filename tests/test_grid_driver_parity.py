"""Every grid driver handles the same failure the same way, in process
and in a worker pool.

The seeded-population runner, the repetition grid and the portfolio
run their cells through one cell loop, so a transient failure is
retried, an exhausted budget ends the same way, and backoff delays come
from the same seeded stream whether ``workers`` is 0 or 2.
"""

import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import DatasetBundle
from repro.experiments.portfolio import run_portfolio
from repro.experiments.repetitions import run_repetitions
from repro.experiments.runner import (
    PopulationFailure,
    RetryPolicy,
    run_seeded_populations,
)
from repro.model.system import SystemModel
from repro.obs.context import RunContext
from repro.rng import derive_seed, ensure_rng
from repro.sim.evaluator import ScheduleEvaluator
from repro.testing.faults import InjectedFault
from repro.utility.presets import assign_presets
from repro.workload.generator import WorkloadGenerator

CFG = ExperimentConfig(
    population_size=10, generations=3, checkpoints=(3,), base_seed=5,
)

#: Per driver: the cell that fails, and the seed stream its backoff
#: jitter is drawn from (the key is appended).
FAILING = {
    "populations": ("random", (CFG.base_seed, "retry-backoff")),
    "repetitions": (1, (CFG.base_seed, "repetition-backoff", "random")),
    "portfolio": ("spea2", (CFG.base_seed, "portfolio-backoff")),
}
DRIVERS = list(FAILING)
WORKERS = [0, 2]


@pytest.fixture(scope="module")
def bundle() -> DatasetBundle:
    rng = np.random.default_rng(42)
    etc = rng.uniform(5.0, 120.0, size=(5, 6))
    epc = rng.uniform(40.0, 250.0, size=(5, 6))
    system = SystemModel.from_matrices(
        etc, epc, machines_per_type=[1, 2, 1, 1, 2, 1]
    ).with_utility_functions(assign_presets(5, 600.0, seed=43))
    trace = WorkloadGenerator.uniform_for(5).generate(40, 600.0, seed=44)
    return DatasetBundle(
        name="parity", system=system, trace=trace,
        horizon_seconds=600.0, seed=0,
    )


@dataclass(frozen=True)
class FailingHook:
    """Picklable ``(key, attempt)`` hook: logs every call to a file
    (pool workers are other processes) and fails *key*'s first
    *failures* attempts."""

    log: str
    key: Hashable
    failures: int

    def __call__(self, key, attempt):
        with open(self.log, "a", encoding="utf-8") as fh:
            fh.write(f"{key!r} {attempt}\n")
        if key == self.key and attempt <= self.failures:
            raise InjectedFault(f"injected (key={key!r}, attempt={attempt})")

    def attempts_of(self, key) -> list:
        lines = Path(self.log).read_text(encoding="utf-8").splitlines()
        return [int(a) for k, a in (ln.rsplit(" ", 1) for ln in lines)
                if k == repr(key)]


def run_driver(driver, bundle, **kwargs):
    """Run *driver* on two cells; return ``{key: snapshot fronts}``."""
    if driver == "populations":
        result = run_seeded_populations(
            bundle, CFG, labels=["min-energy", "random"],
            sleep=lambda _s: None, **kwargs,
        )
    elif driver == "repetitions":
        result = run_repetitions(
            bundle, repetitions=2, generations=CFG.generations,
            population_size=CFG.population_size, base_seed=CFG.base_seed,
            **kwargs,
        )
        return {r: [front.tobytes()] for r, front in enumerate(result.fronts)}
    else:
        result = run_portfolio(
            bundle, CFG, algorithms=["nsga2", "spea2"], exact_epsilon=None,
            **kwargs,
        )
    return {
        key: [snap.front_points.tobytes() for snap in history.snapshots]
        for key, history in result.histories.items()
    }


@pytest.fixture(scope="module")
def clean(bundle):
    return {driver: run_driver(driver, bundle) for driver in DRIVERS}


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("driver", DRIVERS)
class TestSameFailureSameHandling:
    def test_transient_failure_is_retried(self, bundle, clean, tmp_path,
                                          driver, workers):
        key, _ = FAILING[driver]
        hook = FailingHook(str(tmp_path / "calls"), key, failures=1)
        got = run_driver(
            driver, bundle, workers=workers, fault_hook=hook,
            retry=RetryPolicy(max_attempts=2, backoff_base=0),
        )
        assert got == clean[driver]
        assert hook.attempts_of(key) == [1, 2]

    def test_exhausted_retries(self, bundle, tmp_path, driver, workers):
        key, _ = FAILING[driver]
        hook = FailingHook(str(tmp_path / "calls"), key, failures=99)
        retry = RetryPolicy(max_attempts=2, backoff_base=0)
        gave_up = f"{key!r} failed after 2 attempt"
        if driver == "populations":
            result = run_seeded_populations(
                bundle, CFG, labels=["min-energy", "random"],
                workers=workers, retry=retry, fault_hook=hook,
                sleep=lambda _s: None,
            )
            assert list(result.histories) == ["min-energy"]
            (failure,) = result.failures
            assert isinstance(failure, PopulationFailure)
            assert (failure.label, failure.attempts) == (key, 2)
            assert failure.error.startswith("InjectedFault")
            with pytest.raises(ExperimentError, match=gave_up):
                run_seeded_populations(
                    bundle, CFG, labels=["min-energy", "random"],
                    workers=workers, retry=retry, fault_hook=hook,
                    sleep=lambda _s: None, strict=True,
                )
        else:
            with pytest.raises(ExperimentError, match=gave_up) as info:
                run_driver(driver, bundle, workers=workers, retry=retry,
                           fault_hook=hook)
            assert isinstance(info.value.__cause__, InjectedFault)
        assert hook.attempts_of(key)[-2:] == [1, 2]

    def test_backoff_delay_comes_from_the_cell_stream(
        self, bundle, tmp_path, driver, workers
    ):
        key, stream = FAILING[driver]
        retry = RetryPolicy(max_attempts=2, backoff_base=0.01, jitter=0.5)
        obs = RunContext.create(level="debug")
        run_driver(
            driver, bundle, workers=workers, retry=retry, obs=obs,
            fault_hook=FailingHook(str(tmp_path / "calls"), key, failures=1),
        )
        delays = [e["fields"]["delay_seconds"] for e in obs.events.events
                  if e["event"] == "retry.scheduled"]
        expected = retry.delay(1, ensure_rng(derive_seed(*stream, key)))
        assert delays == [expected]
        assert expected > 0.01


@pytest.mark.parametrize("driver", DRIVERS)
def test_no_evaluator_outlives_an_inline_run(bundle, gc_disabled,
                                             monkeypatch, driver):
    """Every evaluator an inline run builds is freed on its reference
    count when the call returns: no module-level memo pins a queue
    table in the coordinator."""
    built = []
    init = ScheduleEvaluator.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(ScheduleEvaluator, "__init__", recording_init)
    run_driver(driver, bundle, workers=0)
    assert built
    assert [ref for ref in built if ref() is not None] == []
