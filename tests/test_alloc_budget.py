"""Allocation budgets of the warm GA path, measured with tracemalloc.

NumPy reports its data buffers to :mod:`tracemalloc`, so the traced
peak of a call is the most it held beyond what existed when it
started.  The batch kernel keeps every per-element temporary in its
grow-only scratch and the GA keeps its genes in two reused slabs, so
once warm neither allocates anything the size of the batch.  Shapes
are Figure 6's data set 3 (4000 tasks × 30 machines) at population 40.

What the kernel still allocates per call is per-queue bookkeeping,
``O(N × queues)``: queue lengths, fingerprints, table probes, fold
ends.  Those arrays are the same at 2000 and at 4000 tasks, so the
kernel test measures both task counts and bounds the difference, which
is exactly what the batch allocates per element.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.core.operators import FeasibleMachines
from repro.experiments.datasets import dataset3
from repro.sim.batchkernel import DEFAULT_CACHE_SIZE
from repro.sim.evaluator import ScheduleEvaluator
from repro.workload.trace import Trace

N = 40


@pytest.fixture(scope="module")
def ds3():
    return dataset3(2013)


def traced_peak(call) -> int:
    """Bytes *call* held at its peak beyond what existed before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def first_tasks(trace: Trace, T: int) -> Trace:
    return Trace(task_types=trace.task_types[:T],
                 arrival_times=trace.arrival_times[:T], window=trace.window)


def random_batch(feasible, T, seed, dtype):
    rng = np.random.default_rng(seed)
    assignments = feasible.sample_matrix(N, rng).astype(dtype)
    orders = np.array([rng.permutation(T) for _ in range(N)], dtype=dtype)
    return assignments, orders


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("cache_size", [DEFAULT_CACHE_SIZE, 0])
def test_all_miss_batch_allocates_nothing_per_element(ds3, cache_size,
                                                      dtype):
    """After one cold batch has grown the scratch, a second, different
    all-miss batch of the same shape allocates less than 1% of N·T·8
    bytes per element."""
    peaks = {}
    for T in (2000, 4000):
        trace = first_tasks(ds3.trace, T)
        ev = ScheduleEvaluator(ds3.system, trace, check_feasibility=False,
                               cache_size=cache_size)
        feasible = FeasibleMachines.from_system_trace(ds3.system, trace)
        ev.evaluate_batch(*random_batch(feasible, T, 1, dtype))
        batch = random_batch(feasible, T, 2, dtype)
        peaks[T] = traced_peak(lambda: ev.evaluate_batch(*batch))
        assert ev.cache_stats["hits"] == 0
    budget = 0.01 * N * 2000 * 8
    assert peaks[4000] - peaks[2000] < budget, peaks


def test_warm_generation_allocates_no_gene_matrix(ds3):
    """One warm NSGA-II generation allocates less than one (N, T) int32
    gene matrix: offspring are written into the slab, survivors are
    gathered into the other slab, and the kernel works in its scratch."""
    ev = ScheduleEvaluator(ds3.system, ds3.trace, check_feasibility=False)
    ga = NSGA2(ev, AlgorithmConfig(population_size=N), rng=3)
    for _ in range(5):
        ga.step()
    T = ds3.trace.num_tasks
    assert traced_peak(ga.step) < N * T * 4
