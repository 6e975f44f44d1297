"""Hot-loop performance benchmark with a regression-tracked report.

Times the NSGA-II generation step at paper scale (population 100 on
data set 1 — the Figure 3 configuration) in three engine
configurations:

* **current** — the production default (``DEFAULT_KERNEL_METHOD``, the
  population-at-once ``batch`` kernel with per-machine queue-state
  reuse, docs/performance.md §4) on the O(N log N) engine, measured at
  cache steady state (its reuse rate climbs over the first ~30
  generations, so it gets a longer warmup — the other kernels are
  generation-independent and unaffected by warmup length);
* **fast** — the exact composite-key kernel with the whole-chromosome
  evaluation cache, on the same O(N log N) engine;
* **reference** — the cross-checked O(N²) dominance-matrix path with
  caching off and the pre-optimization lexsort/offset kernel.

The fast engine's fronts are asserted bit-identical to the reference
machinery, and the current engine's to its scalar oracle
(``kernel_method="batch-reference"``) — every speedup must be free.
Results, with the CPU count they were measured on, are written to
``BENCH_ga_hotloop.json`` at the repo root next to a *frozen* pre-PR
baseline (measured at commit bb55ed6, before the fast path existed)
so the speedup is tracked against where the code started, not against
a moving target.

Regression gate: per-stage mean times must stay under ``2 × max(stage
baseline, 20% of the baseline step)`` — tight enough to catch a lost
optimization, loose enough to absorb machine-to-machine variance
(documented in ``docs/performance.md``).  Set ``REPRO_BENCH_SMOKE=1``
(the CI benchmark-smoke job does) for a reduced-step run that keeps
the same population scale and all correctness/regression assertions
but skips the absolute-speedup gate.

Set ``REPRO_BENCH_OBS=1`` (the CI observability job does) to also run
the fast engine with an **enabled** in-memory
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
from repro.sim.evaluator import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_KERNEL_METHOD,
    ScheduleEvaluator,
)

REPO_ROOT = Path(__file__).parent.parent
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
OBS_BENCH = os.environ.get("REPRO_BENCH_OBS", "") not in ("", "0")

WARMUP = 2 if SMOKE else 5
STEPS = 5 if SMOKE else 30
BLOCKS = 2 if SMOKE else 3
#: The batch kernel's queue-state table reaches steady-state reuse
#: (~60-75% of elements) after roughly 30 generations; timing it cold
#: would measure table warming, not the kernel.  The frozen baseline
#: and fast kernels do the same work every generation, so their
#: shorter warmup is not a protocol advantage.
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

#: Minimum acceptable speedup of the fast configuration over the frozen
#: baseline (full-scale runs only).
MIN_SPEEDUP = 2.0

#: Minimum acceptable steady-state speedup of the batch kernel over
#: the frozen baseline, and its maximum acceptable step-time ratio
#: versus the fast engine timed in the same process (full-scale runs
#: only).  Measured headroom: ~3.2x vs frozen / ~0.72 vs fast on the
#: reference machine; the gates leave margin for noisier hosts.
MIN_SPEEDUP_BATCH = 2.3
MAX_BATCH_VS_FAST = 0.92


def build_engine(bundle, *, fast, kernel=None, obs=None):
    """The production configuration (*fast*) or the pre-PR-shaped one.

    The slow configuration can run either kernel: ``"reference"`` (the
    verbatim pre-PR kernel — what the timing comparison wants) or
    ``"fast"`` (same exact kernel as production — what the bit-identity
    assertion wants, since the retired kernel's offset trick rounds
    differently by design).  ``kernel="batch"`` /
    ``kernel="batch-reference"`` run the population-at-once kernel and
    its scalar oracle on the fast engine machinery.  *obs* threads an
    observability context into both the evaluator and the engine (the
    REPRO_BENCH_OBS gate).
    """
    if kernel is None:
        kernel = "fast" if fast else "reference"
    batchy = kernel in ("batch", "batch-reference")
    evaluator = ScheduleEvaluator(
        bundle.system, bundle.trace, check_feasibility=False,
        cache_size=0 if (not fast and not batchy) else (
            DEFAULT_CACHE_SIZE if batchy else 100_000
        ),
        kernel_method=kernel,
        obs=obs,
    )
    config = NSGA2Config(population_size=FIG3_POP, fast_path=fast)
    label = f"hotloop-{kernel}" if batchy else (
        "hotloop-fast" if fast else "hotloop-reference"
    )
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


@pytest.fixture(scope="module")
def hotloop_report(ds1):
    fast_engine = build_engine(ds1, fast=True)
    batch_engine = build_engine(ds1, fast=True, kernel=DEFAULT_KERNEL_METHOD)
    ref_engine = build_engine(ds1, fast=False)
    fast_ms, fast_stages = measure(fast_engine)
    batch_ms, batch_stages = measure(batch_engine, warmup=BATCH_WARMUP)
    ref_ms, ref_stages = measure(ref_engine)
    batch_cache = batch_engine.evaluator.cache_stats
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
            "kernel": DEFAULT_KERNEL_METHOD,
            "step_ms": round(batch_ms, 4),
            "stages_ms": {k: round(v, 4) for k, v in batch_stages.items()},
            "cache": {
                k: (round(v, 6) if isinstance(v, float) else v)
                for k, v in batch_cache.items()
            },
            "reuse_rate": round(batch_cache["reuse_rate"], 4),
        },
        "fast": {
            "kernel": "fast",
            "step_ms": round(fast_ms, 4),
            "stages_ms": {k: round(v, 4) for k, v in fast_stages.items()},
            "cache": fast_engine.evaluator.cache_stats,
        },
        "reference": {
            "kernel": "reference",
            "step_ms": round(ref_ms, 4),
            "stages_ms": {k: round(v, 4) for k, v in ref_stages.items()},
        },
        "speedup_vs_baseline": round(
            FROZEN_BASELINE["step_ms"] / batch_ms, 4
        ),
        "speedup_fast_vs_baseline": round(
            FROZEN_BASELINE["step_ms"] / fast_ms, 4
        ),
        "speedup_fast_vs_reference": round(ref_ms / fast_ms, 4),
        "current_vs_fast_ratio": round(batch_ms / fast_ms, 4),
    }
    REPORT.write_text(json.dumps(report, indent=2) + "\n")
    return report, fast_engine, ref_engine, batch_engine


def test_fast_and_reference_fronts_bit_identical(hotloop_report, ds1):
    """The entire point of the fast path: same seed, same population and
    front, to the bit, after every warmup + timed generation — checked
    against the O(N²) machinery with caching off (same exact kernel;
    the retired offset kernel rounds differently by design and is only
    compared for speed)."""
    _, fast_engine, _, _ = hotloop_report
    check = build_engine(ds1, fast=False, kernel="fast")
    for _ in range(fast_engine.generation):
        check.step()
    np.testing.assert_array_equal(
        fast_engine.population.objectives, check.population.objectives
    )
    fast_front, _ = fast_engine.current_front()
    check_front, _ = check.current_front()
    np.testing.assert_array_equal(fast_front, check_front)


def test_report_written(hotloop_report):
    report, _, _, _ = hotloop_report
    on_disk = json.loads(REPORT.read_text())
    assert on_disk["baseline"]["commit"] == "bb55ed6"
    assert on_disk["speedup_vs_baseline"] == report["speedup_vs_baseline"]
    for section in ("current", "fast", "reference"):
        assert set(on_disk[section]["stages_ms"]) == {
            "selection", "variation", "evaluate", "environmental"
        }
    assert on_disk["current"]["kernel"] == DEFAULT_KERNEL_METHOD
    assert on_disk["fast"]["kernel"] == "fast"
    assert on_disk["environment"]["cpu_count"] == os.cpu_count()
    assert 0.0 <= on_disk["current"]["reuse_rate"] <= 1.0
    assert on_disk["current_vs_fast_ratio"] == report["current_vs_fast_ratio"]


def test_batch_front_bit_identical_to_oracle(hotloop_report, ds1):
    """The default (batch) kernel's contract: same seed, same fronts, to
    the bit, as its scalar oracle (``batch-reference`` — plain Python
    left folds per queue) after every warmup + timed generation.  The fast kernel
    is *not* the comparison point: its summation association differs
    in the low bits by design."""
    _, _, _, batch_engine = hotloop_report
    check = build_engine(ds1, fast=True, kernel="batch-reference")
    for _ in range(batch_engine.generation):
        check.step()
    np.testing.assert_array_equal(
        batch_engine.population.objectives, check.population.objectives
    )
    batch_front, _ = batch_engine.current_front()
    check_front, _ = check.current_front()
    np.testing.assert_array_equal(batch_front, check_front)


def test_batch_reuse_is_earning_its_keep(hotloop_report):
    """Queue-state reuse is the batch kernel's whole premise: after the
    steady-state warmup a solid fraction of queue elements must be
    served from the tables (smoke runs warm for only a few
    generations, so its floor only asserts reuse is happening)."""
    report, _, _, _ = hotloop_report
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
    report, _, _, _ = hotloop_report
    assert report["speedup_vs_baseline"] >= MIN_SPEEDUP_BATCH, (
        f"batch kernel is only {report['speedup_vs_baseline']:.2f}x "
        f"the frozen baseline; the floor is {MIN_SPEEDUP_BATCH}x"
    )


@pytest.mark.skipif(SMOKE, reason="relative kernel timing is gated at "
                    "full scale")
def test_batch_beats_fast_kernel(hotloop_report):
    """At steady state the batch kernel must beat the fast kernel on
    the same machine in the same process — the in-run ratio is immune
    to machine-to-machine variance."""
    report, _, _, _ = hotloop_report
    ratio = report["current_vs_fast_ratio"]
    assert ratio <= MAX_BATCH_VS_FAST, (
        f"batch/fast step ratio {ratio:.3f} exceeds {MAX_BATCH_VS_FAST} "
        f"(batch {report['current']['step_ms']:.3f} ms vs fast "
        f"{report['fast']['step_ms']:.3f} ms)"
    )


def test_stage_regression_gate(hotloop_report):
    """Each fast-path stage must stay under 2× its frozen-baseline
    budget (with a 20%-of-step floor so sub-millisecond stages do not
    gate on scheduler noise)."""
    report, _, _, _ = hotloop_report
    base_step = FROZEN_BASELINE["step_ms"]
    base = FROZEN_BASELINE["stages_ms"]
    budgets = {
        "selection": 0.0,  # folded into sorting pre-PR
        "variation": base["variation"],
        "evaluate": base["evaluate"],
        # Pre-PR sorting + environmental selection are one stage pair.
        "environmental": base["nondominated_sort"]
        + base["environmental_selection"],
    }
    for stage, measured in report["fast"]["stages_ms"].items():
        allowed = 2.0 * max(budgets[stage], 0.2 * base_step)
        assert measured <= allowed, (
            f"stage {stage!r} regressed: {measured:.3f} ms > "
            f"{allowed:.3f} ms allowed"
        )
    assert report["fast"]["step_ms"] <= 2.0 * base_step


@pytest.mark.skipif(SMOKE, reason="absolute speedup is gated at full scale")
def test_speedup_vs_frozen_baseline(hotloop_report):
    report, _, _, _ = hotloop_report
    assert report["speedup_fast_vs_baseline"] >= MIN_SPEEDUP, (
        f"fast path is only {report['speedup_fast_vs_baseline']:.2f}x the "
        f"frozen baseline; the acceptance floor is {MIN_SPEEDUP}x"
    )


@pytest.mark.skipif(not OBS_BENCH, reason="set REPRO_BENCH_OBS=1 to gate "
                    "observability overhead")
def test_observability_overhead_within_budget(hotloop_report, ds1):
    """An enabled (info-level, in-memory) RunContext must keep every
    stage inside the same 2× frozen-baseline budget the dark engine is
    held to — and must not change the optimization results."""
    from repro.obs import RunContext

    obs = RunContext.create(level="info")
    engine = build_engine(ds1, fast=True, obs=obs)
    step_ms, stages = measure(engine)

    base_step = FROZEN_BASELINE["step_ms"]
    base = FROZEN_BASELINE["stages_ms"]
    budgets = {
        "selection": 0.0,
        "variation": base["variation"],
        "evaluate": base["evaluate"],
        "environmental": base["nondominated_sort"]
        + base["environmental_selection"],
    }
    for stage, measured in stages.items():
        allowed = 2.0 * max(budgets[stage], 0.2 * base_step)
        assert measured <= allowed, (
            f"observability pushed stage {stage!r} over budget: "
            f"{measured:.3f} ms > {allowed:.3f} ms allowed"
        )
    assert step_ms <= 2.0 * base_step
    assert len(obs.tracer) > 0  # it really was recording

    # Same seed, same generations, bit-identical objectives.
    dark = build_engine(ds1, fast=True)
    for _ in range(engine.generation):
        dark.step()
    np.testing.assert_array_equal(
        engine.population.objectives, dark.population.objectives
    )


def test_cache_is_earning_its_keep(hotloop_report):
    """At GA access patterns duplicate chromosomes recur (elitism keeps
    parents verbatim); the cache must be observing real hits."""
    report, _, _, _ = hotloop_report
    cache = report["fast"]["cache"]
    assert cache["misses"] > 0
    assert cache["hits"] > 0
