"""Hot-loop performance benchmark with a regression-tracked report.

Times the NSGA-II generation step at paper scale (population 100 on
data set 1 — the Figure 3 configuration) on the production engine: the
population-at-once batch kernel with per-machine queue-state reuse
(docs/performance.md) on the O(N log N) engine, measured at cache
steady state (its reuse rate climbs over the first ~30 generations, so
it gets a longer warmup than the frozen baseline's protocol).

The timed engine's fronts are asserted bit-identical to a replay on
the O(N²) dominance-matrix machinery with queue-state caching off —
every speedup must be free.  (Kernel ≡ scalar oracle is pinned in
``tests/test_sim_batchkernel.py``.)  Results, with the CPU count they
were measured on, are written to ``BENCH_ga_hotloop.json`` at the repo
root next to a *frozen* pre-PR baseline (measured at commit bb55ed6,
before the fast path existed) so the speedup is tracked against where
the code started, not against a moving target.

Regression gate: per-stage mean times must stay under ``2 × max(stage
baseline, 20% of the baseline step)`` — tight enough to catch a lost
optimization, loose enough to absorb machine-to-machine variance
(documented in ``docs/performance.md``).  Set ``REPRO_BENCH_SMOKE=1``
(the CI benchmark-smoke job does) for a reduced-step run that keeps
the same population scale and all correctness/regression assertions
but skips the absolute-speedup gate.

Set ``REPRO_BENCH_OBS=1`` (the CI observability job does) to also run
the engine with an **enabled** in-memory
:class:`~repro.obs.context.RunContext` and hold it to the *same* 2×
stage budget — the zero-overhead-by-default contract of
``docs/observability.md``, measured rather than asserted.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import BENCH_SEED, FIG3_POP
from repro.core.nsga2 import NSGA2, NSGA2Config
from repro.sim.evaluator import DEFAULT_CACHE_SIZE, ScheduleEvaluator

REPO_ROOT = Path(__file__).parent.parent
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
OBS_BENCH = os.environ.get("REPRO_BENCH_OBS", "") not in ("", "0")

WARMUP = 2 if SMOKE else 5
STEPS = 5 if SMOKE else 30
BLOCKS = 2 if SMOKE else 3
#: The batch kernel's queue-state table reaches steady-state reuse
#: after roughly 30 generations; timing it cold would measure table
#: warming, not the kernel.
BATCH_WARMUP = 4 if SMOKE else 35
REPORT = REPO_ROOT / (
    "BENCH_ga_hotloop.smoke.json" if SMOKE else "BENCH_ga_hotloop.json"
)

#: Pre-PR generation-step timings, frozen at the commit before the fast
#: path landed (same machine, same seed/population/warmup/steps protocol
#: as this file).  Never re-measured: the acceptance criterion is a
#: speedup over where the code *was*.
FROZEN_BASELINE = {
    "commit": "bb55ed6",
    "step_ms": 10.3414,
    "stages_ms": {
        "variation": 0.3429,
        "evaluate": 7.1791,
        "nondominated_sort": 2.6288,
        "environmental_selection": 2.8365,
    },
    "population": 100,
    "warmup": 5,
    "steps": 30,
    "seed": 2013,
    "machine": "x86_64",
    "python": "3.11.7",
    "numpy": "2.4.6",
}

#: Minimum acceptable steady-state speedup of the batch kernel over
#: the frozen baseline (full-scale runs only).  Measured headroom:
#: 3.0-4.0x on a shared 2-vCPU x86-64 host; the gate leaves margin
#: for noisier hosts.
MIN_SPEEDUP_BATCH = 2.3


def build_engine(bundle, *, fast=True, cache_size=DEFAULT_CACHE_SIZE,
                 obs=None):
    """The production engine (*fast*) or the O(N²) reference machinery.

    *cache_size* sizes the evaluator's queue-state table (``0`` folds
    every queue afresh); *obs* threads an observability context into
    both the evaluator and the engine (the REPRO_BENCH_OBS gate).
    """
    evaluator = ScheduleEvaluator(
        bundle.system, bundle.trace, check_feasibility=False,
        cache_size=cache_size, obs=obs,
    )
    config = NSGA2Config(population_size=FIG3_POP, fast_path=fast)
    label = "hotloop" if fast else "hotloop-reference"
    return NSGA2(evaluator, config, rng=BENCH_SEED, label=label, obs=obs)


def timed_steps(engine, steps):
    """Mean wall-clock per generation step over *steps* generations."""
    t0 = time.perf_counter()
    for _ in range(steps):
        engine.step()
    return (time.perf_counter() - t0) / steps * 1000.0


def measure(engine, warmup=WARMUP):
    """Best-of-``BLOCKS`` mean step time plus per-stage means.

    Taking the best block (not the grand mean) filters one-sided
    interference from other processes — the standard noise model for
    wall-clock microbenchmarks: slowdowns are external, speedups are
    not possible.
    """
    timed_steps(engine, warmup)
    engine.stage_timings.reset()
    step_ms = min(timed_steps(engine, STEPS) for _ in range(BLOCKS))
    stages = {
        stage: engine.stage_timings.mean_ms(stage)
        for stage in ("selection", "variation", "evaluate", "environmental")
    }
    return step_ms, stages


#: Stage budgets from the frozen baseline (pre-PR sorting and
#: environmental selection are one stage pair; selection was folded
#: into sorting).
BASE_STAGE_BUDGETS = {
    "selection": 0.0,
    "variation": FROZEN_BASELINE["stages_ms"]["variation"],
    "evaluate": FROZEN_BASELINE["stages_ms"]["evaluate"],
    "environmental": FROZEN_BASELINE["stages_ms"]["nondominated_sort"]
    + FROZEN_BASELINE["stages_ms"]["environmental_selection"],
}


def assert_within_stage_budget(step_ms, stages, what):
    """Each stage under 2× its frozen-baseline budget (with a
    20%-of-step floor so sub-millisecond stages do not gate on
    scheduler noise), and the whole step under 2× the baseline step."""
    base_step = FROZEN_BASELINE["step_ms"]
    for stage, measured in stages.items():
        allowed = 2.0 * max(BASE_STAGE_BUDGETS[stage], 0.2 * base_step)
        assert measured <= allowed, (
            f"{what} stage {stage!r}: {measured:.3f} ms > "
            f"{allowed:.3f} ms allowed"
        )
    assert step_ms <= 2.0 * base_step


@pytest.fixture(scope="module")
def hotloop_report(ds1):
    engine = build_engine(ds1)
    step_ms, stages = measure(engine, warmup=BATCH_WARMUP)
    cache = engine.evaluator.cache_stats
    report = {
        "description": (
            "NSGA-II generation-step timings, population "
            f"{FIG3_POP} on dataset1 (Figure 3 scale)"
        ),
        "protocol": {
            "population": FIG3_POP,
            "warmup": WARMUP,
            "batch_warmup": BATCH_WARMUP,
            "steps": STEPS,
            "blocks": BLOCKS,
            "seed": BENCH_SEED,
            "smoke": SMOKE,
        },
        "environment": {
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "baseline": FROZEN_BASELINE,
        "current": {
            "kernel": "batch",
            "step_ms": round(step_ms, 4),
            "stages_ms": {k: round(v, 4) for k, v in stages.items()},
            "cache": {
                k: (round(v, 6) if isinstance(v, float) else v)
                for k, v in cache.items()
            },
            "reuse_rate": round(cache["reuse_rate"], 4),
        },
        "speedup_vs_baseline": round(FROZEN_BASELINE["step_ms"] / step_ms, 4),
    }
    REPORT.write_text(json.dumps(report, indent=2) + "\n")
    return report, engine


def test_reference_machinery_replays_fronts_bit_identically(
    hotloop_report, ds1
):
    """The point of every optimization: same seed, same population and
    front, to the bit, after every warmup + timed generation — checked
    against the O(N²) machinery with queue-state caching off, so
    neither the engine's fast path nor the kernel's reuse may change a
    result."""
    _, engine = hotloop_report
    check = build_engine(ds1, fast=False, cache_size=0)
    for _ in range(engine.generation):
        check.step()
    np.testing.assert_array_equal(
        engine.population.objectives, check.population.objectives
    )
    front, _ = engine.current_front()
    check_front, _ = check.current_front()
    np.testing.assert_array_equal(front, check_front)


def test_report_written(hotloop_report):
    report, _ = hotloop_report
    on_disk = json.loads(REPORT.read_text())
    assert on_disk["baseline"]["commit"] == "bb55ed6"
    assert on_disk["speedup_vs_baseline"] == report["speedup_vs_baseline"]
    assert set(on_disk["current"]["stages_ms"]) == {
        "selection", "variation", "evaluate", "environmental"
    }
    assert on_disk["current"]["kernel"] == "batch"
    assert "fast" not in on_disk and "reference" not in on_disk
    assert on_disk["environment"]["cpu_count"] == os.cpu_count()
    assert 0.0 <= on_disk["current"]["reuse_rate"] <= 1.0


def test_batch_reuse_is_earning_its_keep(hotloop_report):
    """Queue-state reuse is the batch kernel's whole premise: after the
    steady-state warmup a solid fraction of queue elements must be
    served from the tables (smoke runs warm for only a few
    generations, so its floor only asserts reuse is happening)."""
    report, _ = hotloop_report
    cache = report["current"]["cache"]
    assert cache["hits"] > 0
    assert cache["elements_reused"] > 0
    floor = 0.02 if SMOKE else 0.35
    assert report["current"]["reuse_rate"] >= floor, (
        f"batch reuse rate {report['current']['reuse_rate']:.2%} fell below "
        f"the {floor:.0%} floor"
    )


@pytest.mark.skipif(SMOKE, reason="absolute speedup is gated at full scale")
def test_batch_speedup_vs_frozen_baseline(hotloop_report):
    report, _ = hotloop_report
    assert report["speedup_vs_baseline"] >= MIN_SPEEDUP_BATCH, (
        f"batch kernel is only {report['speedup_vs_baseline']:.2f}x "
        f"the frozen baseline; the floor is {MIN_SPEEDUP_BATCH}x"
    )


def test_stage_regression_gate(hotloop_report):
    report, _ = hotloop_report
    current = report["current"]
    assert_within_stage_budget(current["step_ms"], current["stages_ms"],
                               "current")


@pytest.mark.skipif(not OBS_BENCH, reason="set REPRO_BENCH_OBS=1 to gate "
                    "observability overhead")
def test_observability_overhead_within_budget(ds1):
    """An enabled (info-level, in-memory) RunContext must keep every
    stage inside the same 2× frozen-baseline budget the dark engine is
    held to — and must not change the optimization results."""
    from repro.obs import RunContext

    obs = RunContext.create(level="info")
    engine = build_engine(ds1, obs=obs)
    step_ms, stages = measure(engine, warmup=BATCH_WARMUP)
    assert_within_stage_budget(step_ms, stages, "observed")
    assert len(obs.tracer) > 0  # it really was recording

    # Same seed, same generations, bit-identical objectives.
    dark = build_engine(ds1)
    for _ in range(engine.generation):
        dark.step()
    np.testing.assert_array_equal(
        engine.population.objectives, dark.population.objectives
    )
