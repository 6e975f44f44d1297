"""Tests of the benchmark itself: smoke runs of every workload, the
traced run's per-layer report, and refusal to run without the program.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DEFINITION = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_every_check(workload):
    proc = bench("--smoke", "--workload", workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in DEFINITION["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "FAILED" not in proc.stdout


def test_traced_run_reports_every_per_layer_metric():
    proc = bench("--smoke", "--workload", "serve-ds1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == {m["name"] for m in DEFINITION["per_layer"]}
    assert metrics["service.optimize_ms"]["value"] > 0
    assert metrics["evaluator.batch_calls"]["value"] > 0
    trace = os.path.join(HERE, "out", "serve-ds1-seed2013.trace.jsonl")
    with open(trace, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    assert "header" in lines[0] and "counts" in lines[-1]
    assert {span["name"] for span in lines[1:-1]} >= {
        "run", "service.window", "ga.run", "evaluator.batch"}


def test_refuses_to_run_without_the_program():
    # Inside the checkout (out/ is ignored), removed afterwards so no
    # copy of this file is left for the next collection to find.
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench("--workload", "fig3-ds1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_mutually_nondominated():
    front = np.array([[1.0, 1.0], [2.0, 3.0], [3.0, 4.0]])
    assert workloads.mutually_nondominated(front)
    assert not workloads.mutually_nondominated(np.vstack([front, [[1.5, 3.0]]]))


def test_other_ms_is_root_time_no_phase_covers():
    tracer = layers.Tracer()
    tracer.spans = [
        ["run", 0.0, 10.0, -1],
        ["service.window", 0.0, 6.0, 0],   # transparent container
        ["ga.run", 1.0, 4.0, 1],           # transparent container
        ["ga.generation", 1.0, 3.0, 2],
        ["evaluator.batch", 1.0, 2.0, 3],
        ["service.commit", 5.0, 5.5, 1],
        ["seeding.build", 7.0, 9.0, 0],
    ]
    metrics = layers.layer_metrics(tracer, 0, {})
    # Covered: generation 2 + commit 0.5 + seeding 2 = 4.5 of 10 s.
    assert metrics["other_ms"] == pytest.approx(5500.0)
    assert metrics["ga.self_ms"] == pytest.approx(1000.0)
    assert metrics["evaluator.batch_calls"] == 1
