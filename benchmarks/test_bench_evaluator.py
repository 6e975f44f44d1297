"""Ablation A3: vectorized evaluator vs the sequential reference.

Quantifies why the closed-form segmented-scan evaluation exists: the
NSGA-II evaluates ~N chromosomes per generation, and the paper's
figures run up to a million generations — the vectorized path is the
difference between seconds and days.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.sim.evaluator import ScheduleEvaluator
from repro.heuristics import MinEnergy

from conftest import write_output


def _load_oracles():
    """``tests/oracles.py``, loaded by path: ``benchmarks/`` has its own
    ``conftest.py``, so ``tests/`` must not shadow it on ``sys.path``."""
    path = Path(__file__).resolve().parents[1] / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


simulate_reference = _load_oracles().simulate_reference


@pytest.fixture(scope="module")
def scenario(request):
    from repro.experiments.datasets import dataset1

    ds = dataset1(seed=1)
    evaluator = ScheduleEvaluator(ds.system, ds.trace, check_feasibility=False)
    alloc = MinEnergy().build(ds.system, ds.trace)
    return ds, evaluator, alloc


def test_vectorized_single_evaluation(benchmark, scenario):
    ds, evaluator, alloc = scenario
    res = benchmark(evaluator.evaluate, alloc)
    assert res.energy > 0


def test_reference_single_evaluation(benchmark, scenario):
    ds, evaluator, alloc = scenario
    ref = benchmark(simulate_reference, ds.system, ds.trace, alloc)
    fast = evaluator.evaluate(alloc)
    assert fast.energy == pytest.approx(ref.energy)
    assert fast.utility == pytest.approx(ref.utility)


def test_batch_vs_loop(benchmark, scenario):
    """One fused batch call vs N single calls (the same 64 chromosomes)."""
    ds, evaluator, _ = scenario
    rng = np.random.default_rng(0)
    T = ds.trace.num_tasks
    N = 64
    assignments = rng.integers(0, ds.system.num_machines, size=(N, T))
    orders = np.stack([rng.permutation(T) for _ in range(N)])

    energies, utilities = benchmark(
        evaluator.evaluate_batch, assignments, orders
    )

    # Correctness of the fused path against the single path.
    for i in (0, N // 2, N - 1):
        from repro.sim.schedule import ResourceAllocation

        res = evaluator.evaluate(ResourceAllocation(assignments[i], orders[i]))
        assert energies[i] == pytest.approx(res.energy)
        assert utilities[i] == pytest.approx(res.utility)

    # Measure the three paths directly so the artifact carries numbers.
    import time

    def timed(fn, *args, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(*args)
            best = min(best, time.perf_counter() - t0)
        return best

    t_single = timed(
        lambda: evaluator.evaluate(
            __import__("repro.sim.schedule", fromlist=["ResourceAllocation"])
            .ResourceAllocation(assignments[0], orders[0])
        )
    )
    t_ref = timed(lambda: simulate_reference(
        ds.system, ds.trace,
        __import__("repro.sim.schedule", fromlist=["ResourceAllocation"])
        .ResourceAllocation(assignments[0], orders[0]),
    ))
    t_batch = timed(lambda: evaluator.evaluate_batch(assignments, orders))
    write_output(
        "ablation_a3_evaluator.txt",
        "A3: evaluator paths on dataset1 (250 tasks; best of 5)\n"
        f"  sequential reference:     {t_ref * 1e3:8.3f} ms / chromosome\n"
        f"  vectorized single:        {t_single * 1e3:8.3f} ms / chromosome "
        f"({t_ref / t_single:.0f}x faster)\n"
        f"  fused batch of {N}:        {t_batch / N * 1e3:8.3f} ms / chromosome "
        f"({t_ref / (t_batch / N):.0f}x faster)",
    )


@pytest.mark.parametrize("num_tasks", [500, 2000, 8000])
def test_evaluation_scaling(benchmark, num_tasks):
    """Single-chromosome evaluation cost vs trace size (the O(T log T)
    claim of docs/architecture.md, measured)."""
    import numpy as np

    from repro.experiments.datasets import build_expanded_system
    from repro.sim.schedule import ResourceAllocation
    from repro.workload.generator import WorkloadGenerator

    system = build_expanded_system(seed=9, horizon_seconds=3600.0)
    trace = WorkloadGenerator.uniform_for(system.num_task_types).generate(
        num_tasks, 3600.0, seed=10
    )
    evaluator = ScheduleEvaluator(system, trace, check_feasibility=False)
    rng = np.random.default_rng(11)
    feasible = system.feasible_task_machine[trace.task_types]
    assignment = np.array([
        rng.choice(np.flatnonzero(feasible[t])) for t in range(num_tasks)
    ])
    alloc = ResourceAllocation(assignment, rng.permutation(num_tasks))

    result = benchmark(evaluator.evaluate, alloc)
    assert result.energy > 0
