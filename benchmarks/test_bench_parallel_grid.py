"""Parallel experiment-grid benchmark with a regression-tracked report.

Times a repetition grid (R independent NSGA-II runs on data set 1)
executed serially and through the zero-copy shared-memory engine, and
measures the two properties the engine exists for:

* **Bit-identity** — the parallel fronts equal the serial fronts
  exactly, every repetition, so the speedup is free (asserted in both
  smoke and full runs).
* **O(1) submission payload** — the pickled
  :class:`~repro.parallel.descriptors.SharedDatasetHandle` carries
  system metadata only: going from 250 tasks (data set 1) to 4000
  (data set 3) grows the shared arrays ~50× but the handle only ~4×
  (the larger system definition), keeping it under 2% of the segment
  it stands in for.  The handle ships once per worker; per-cell
  submissions carry just a repetition index.

Results are written to ``BENCH_parallel_grid.json`` at the repo root
(``.smoke.json`` under ``REPRO_BENCH_SMOKE=1``, which shrinks R /
generations / population but keeps every correctness assertion).

The absolute wall-clock gate — parallel must beat serial by
``MIN_SPEEDUP`` with 4 workers — only runs on machines that can
express it (``os.cpu_count() >= 4`` and not smoke); runners with fewer
than 4 CPUs still check identity, payload scaling, and write the report.

The report also carries the Min-Min stage-1 cache counters on the
4000-task data set (see ``tests/test_min_min_scaling.py`` for the
hard ceiling): seeding cost rides along with every paper-scale grid,
so its scaling is tracked in the same artifact.
"""

from __future__ import annotations

import json
import os
import pickle
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import BENCH_SEED
from repro.experiments.repetitions import run_repetitions
from repro.heuristics.min_min import MinMinCompletionTime
from repro.parallel import descriptors, shm

REPO_ROOT = Path(__file__).parent.parent
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
OBS_BENCH = os.environ.get("REPRO_BENCH_OBS", "") not in ("", "0")

REPETITIONS = 4 if SMOKE else 8
GENERATIONS = 6 if SMOKE else 40
POPULATION = 16 if SMOKE else 60
WORKERS = 2 if SMOKE else 4
REPORT = REPO_ROOT / (
    "BENCH_parallel_grid.smoke.json" if SMOKE else "BENCH_parallel_grid.json"
)

#: Minimum serial/parallel wall-clock ratio with 4 workers (full runs
#: on >= 4 cores only; the grid is embarrassingly parallel, so the
#: remaining gap is publish + attach + result pickling overhead).
MIN_SPEEDUP = 2.0

#: Ceiling on the pickled handle size — O(system metadata: machine
#: definitions and TUF parameters), not O(trace length).  Data set 3's
#: expanded 30-machine system serializes to ~17 KB of metadata while
#: its 4000-task arrays occupy megabytes of segment.
MAX_HANDLE_BYTES = 32_768

#: Worker-telemetry overhead budget on the parallel path: turning the
#: per-worker sinks on may cost at most 3% of the dark grid's wall
#: clock, plus a flat allowance for run-to-run pool-startup noise
#: (both runs fork a fresh pool; on loaded CI machines that alone
#: jitters by hundreds of milliseconds).
OBS_OVERHEAD_BUDGET = 0.03
OBS_OVERHEAD_FLOOR_S = 0.75


def _grid(ds, *, workers):
    t0 = time.perf_counter()
    result = run_repetitions(
        ds, repetitions=REPETITIONS, generations=GENERATIONS,
        population_size=POPULATION, base_seed=BENCH_SEED, workers=workers,
    )
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def grid_report(ds1, ds3):
    serial, serial_s = _grid(ds1, workers=0)
    parallel, parallel_s = _grid(ds1, workers=WORKERS)

    payload = {}
    for name, ds in (("dataset1", ds1), ("dataset3", ds3)):
        with descriptors.publish_dataset(ds) as published:
            payload[name] = {
                "handle_bytes": len(pickle.dumps(published.handle)),
                "segment_bytes": published.nbytes,
                "transport": published.transport,
            }

    minmin = MinMinCompletionTime()
    t0 = time.perf_counter()
    minmin.build(ds3.system, ds3.trace)
    minmin_s = time.perf_counter() - t0

    if SMOKE:
        gate_status = "skipped-smoke"
    elif (os.cpu_count() or 1) < 4:
        gate_status = "skipped-under-4-cpus"
    else:
        gate_status = "enforced"

    report = {
        "description": (
            f"{REPETITIONS}-repetition NSGA-II grid on dataset1, serial vs "
            f"{WORKERS} shared-memory pool workers"
        ),
        "protocol": {
            "repetitions": REPETITIONS,
            "generations": GENERATIONS,
            "population": POPULATION,
            "workers": WORKERS,
            "seed": BENCH_SEED,
            "smoke": SMOKE,
        },
        "environment": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "wallclock": {
            "serial_s": round(serial_s, 4),
            "parallel_s": round(parallel_s, 4),
            "speedup": round(serial_s / parallel_s, 4),
        },
        "payload": payload,
        #: Whether the absolute-speedup gate actually ran.  A grid
        #: benchmark whose headline gate silently stops running (e.g. a
        #: CI image change drops the visible core count) would keep
        #: producing green reports that verify nothing — the status
        #: field makes the skip auditable, and ``test_parallel_speedup``
        #: fails loudly if the skip reason does not hold on this runner.
        "gate": {
            "min_speedup": MIN_SPEEDUP,
            "status": gate_status,
        },
        "minmin_dataset3": {
            "build_s": round(minmin_s, 4),
            **minmin.last_stats,
        },
    }
    REPORT.write_text(json.dumps(report, indent=2) + "\n")
    return report, serial, parallel


def test_parallel_fronts_bit_identical(grid_report):
    """The speedup must be free: every repetition's front matches the
    serial run exactly, whatever the completion order."""
    _, serial, parallel = grid_report
    assert len(parallel.fronts) == REPETITIONS
    for s, p in zip(serial.fronts, parallel.fronts):
        np.testing.assert_array_equal(s, p)
    assert serial.hypervolume == parallel.hypervolume


def test_no_segments_leaked(grid_report):
    assert shm.owned_segments() == ()
    assert shm.leaked_segments() == ()


def test_submission_payload_is_o1_in_dataset_size(grid_report):
    """The handle is O(metadata): it barely grows from 250 to 4000
    tasks while the shared arrays grow ~10x."""
    report, _, _ = grid_report
    small = report["payload"]["dataset1"]
    large = report["payload"]["dataset3"]
    assert small["handle_bytes"] <= MAX_HANDLE_BYTES
    assert large["handle_bytes"] <= MAX_HANDLE_BYTES
    if small["transport"] == "shm" and large["transport"] == "shm":
        # Arrays blow up ~50x (250 -> 4000 tasks on a 2x-wider system);
        # the handle only tracks the system metadata (~4x) and stays a
        # rounding error next to the segment it stands in for.
        array_growth = large["segment_bytes"] / small["segment_bytes"]
        handle_growth = large["handle_bytes"] / small["handle_bytes"]
        assert array_growth > 5 * handle_growth
        assert large["handle_bytes"] < 0.02 * large["segment_bytes"]


def test_minmin_cache_work_tracked(grid_report):
    report, _, _ = grid_report
    stats = report["minmin_dataset3"]
    naive_rows = stats["tasks"] * (stats["tasks"] - 1) // 2
    assert stats["recomputed_rows"] < naive_rows / 5


def test_parallel_speedup(grid_report):
    """Absolute speedup gate — enforced wherever the runner can
    express it, and LOUD about any skip that should not happen.

    The report records the gate status; a skip is only legitimate in
    smoke mode or on a machine with fewer than 4 visible cores.  If
    the status claims a skip while this runner is a full-scale
    multi-core machine, something upstream broke the gate wiring and
    the test fails instead of silently passing.
    """
    report, _, _ = grid_report
    status = report["gate"]["status"]
    multi_core = (os.cpu_count() or 1) >= 4
    if status != "enforced":
        if multi_core and not SMOKE:
            pytest.fail(
                f"speedup gate marked {status!r} but this is a "
                f"{os.cpu_count()}-core full-scale runner — the gate "
                "was skipped silently"
            )
        pytest.skip(f"speedup gate {status}")
    assert multi_core and not SMOKE  # status computation stays honest
    assert report["wallclock"]["speedup"] >= MIN_SPEEDUP


def test_report_written(grid_report):
    report, _, _ = grid_report
    on_disk = json.loads(REPORT.read_text())
    assert on_disk["wallclock"] == report["wallclock"]
    assert set(on_disk["payload"]) == {"dataset1", "dataset3"}
    assert on_disk["gate"]["status"] in (
        "enforced", "skipped-under-4-cpus", "skipped-smoke"
    )


@pytest.mark.skipif(not OBS_BENCH, reason="set REPRO_BENCH_OBS=1 to gate "
                    "worker-telemetry overhead")
def test_worker_telemetry_overhead_within_budget(grid_report, ds1, tmp_path):
    """Worker-side telemetry must cost <= 3% of the dark parallel grid
    (plus a flat noise floor) — and must not change the fronts.

    The dark baseline is the ``grid_report`` fixture's parallel run
    (same R / generations / workers, telemetry off); this run adds an
    enabled RunContext with an ``obs_dir``, so every worker opens a
    sink, records a ``cell.run`` span + metrics per cell, and
    checkpoints its files after each cell.
    """
    from repro.obs import RunContext, validate_run_dir

    report, _, parallel = grid_report
    dark_s = report["wallclock"]["parallel_s"]

    obs = RunContext.create(obs_dir=tmp_path / "obs", run_id="bench-obs")
    t0 = time.perf_counter()
    lit = run_repetitions(
        ds1, repetitions=REPETITIONS, generations=GENERATIONS,
        population_size=POPULATION, base_seed=BENCH_SEED, workers=WORKERS,
        obs=obs,
    )
    lit_s = time.perf_counter() - t0
    obs.flush()

    # The telemetry must be real: per-worker sinks exist and the merged
    # trace is schema-valid with one cell span per repetition.
    merged = tmp_path / "obs" / "merged"
    assert merged.is_dir(), "flush did not merge the worker sinks"
    assert validate_run_dir(merged) == []
    spans = [
        json.loads(line)
        for line in (merged / "trace.jsonl").read_text().splitlines()
    ]
    assert sum(s["name"] == "cell.run" for s in spans) == REPETITIONS

    # Bit-identity: telemetry on vs off.
    for dark_front, lit_front in zip(parallel.fronts, lit.fronts):
        np.testing.assert_array_equal(dark_front, lit_front)

    allowed = dark_s * (1.0 + OBS_OVERHEAD_BUDGET) + OBS_OVERHEAD_FLOOR_S
    assert lit_s <= allowed, (
        f"worker telemetry pushed the parallel grid over budget: "
        f"{lit_s:.3f} s vs {dark_s:.3f} s dark "
        f"(allowed {allowed:.3f} s = dark * {1 + OBS_OVERHEAD_BUDGET} "
        f"+ {OBS_OVERHEAD_FLOOR_S} s noise floor)"
    )
