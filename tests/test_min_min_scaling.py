"""Min-Min stage-1 cache scaling regression (paper-scale data set).

The naive two-stage greedy rescans every unmapped task's row each
mapping step — ~T²/2 row recomputations (≈ 8M rows at T = 4000).  The
cached implementation only recomputes rows whose cached best machine
was the one just updated.  :attr:`MinMinCompletionTime.last_stats`
exposes the actual cache work so this test can pin the optimization:
a regression to near-naive invalidation trips the ceiling long before
it trips a wall-clock benchmark.
"""

import numpy as np
import pytest

from repro.experiments.datasets import dataset1, dataset2, dataset3
from repro.heuristics.min_min import MinMinCompletionTime


@pytest.fixture(scope="module")
def paper_scale():
    """dataset3: T = 4000 tasks, M = 30 machines."""
    bundle = dataset3()
    heuristic = MinMinCompletionTime()
    alloc = heuristic.build(bundle.system, bundle.trace)
    return bundle, heuristic, alloc


class TestCacheWorkCeiling:
    def test_recomputed_rows_far_below_naive(self, paper_scale):
        _, heuristic, _ = paper_scale
        stats = heuristic.last_stats
        assert stats["tasks"] == 4000
        naive_rows = stats["tasks"] * (stats["tasks"] - 1) // 2
        # Measured: ~708k rows vs ~8M naive. Ceiling leaves headroom
        # for dataset regeneration but catches a near-naive regression.
        assert stats["recomputed_rows"] <= 1_000_000
        assert stats["recomputed_rows"] < naive_rows / 5
        assert stats["invalidation_rounds"] <= stats["tasks"]

    def test_stats_reset_per_build(self, paper_scale):
        _, heuristic, _ = paper_scale
        bundle = dataset1()
        heuristic.build(bundle.system, bundle.trace)
        assert heuristic.last_stats["tasks"] == bundle.trace.num_tasks
        assert heuristic.last_stats["machines"] == bundle.system.num_machines

    def test_cached_result_matches_naive_reference(self):
        """The invalidation shortcut is exact: identical mapping to a
        brute-force Min-Min on a small instance."""
        bundle = dataset1()
        heuristic = MinMinCompletionTime()
        alloc = heuristic.build(bundle.system, bundle.trace)

        _, arrivals, etc, _ = heuristic._prepare(bundle.system, bundle.trace)
        T, M = etc.shape
        available = np.zeros(M)
        assignment = np.empty(T, dtype=np.int64)
        order = np.empty(T, dtype=np.int64)
        unmapped = np.ones(T, dtype=bool)
        for k in range(T):
            completion = np.maximum(available[None, :], arrivals[:, None]) + etc
            completion[~unmapped] = np.inf
            t, m = np.unravel_index(np.argmin(completion), completion.shape)
            assignment[t] = m
            order[t] = k
            unmapped[t] = False
            available[m] = completion[t, m]

        np.testing.assert_array_equal(alloc.machine_assignment, assignment)
        np.testing.assert_array_equal(alloc.scheduling_order, order)


def masked_min_min(arrivals, etc):
    """The Min-Min loop before mapped tasks were marked in the cache:
    an ``unmapped`` mask hides them from stage 2 and invalidation.
    Returns ``(assignment, order, recomputed_rows, invalidation_rounds)``."""
    T, M = etc.shape
    available = np.zeros(M, dtype=np.float64)
    assignment = np.empty(T, dtype=np.int64)
    order = np.empty(T, dtype=np.int64)
    unmapped = np.ones(T, dtype=bool)
    completion = np.maximum(available[None, :], arrivals[:, None]) + etc
    best_m = np.argmin(completion, axis=1)
    best_c = completion[np.arange(T), best_m]
    recomputed_rows = invalidation_rounds = 0
    for k in range(T):
        masked = np.where(unmapped, best_c, np.inf)
        t = int(np.argmin(masked))
        m = int(best_m[t])
        assignment[t] = m
        order[t] = k
        unmapped[t] = False
        available[m] = best_c[t]
        stale = unmapped & (best_m == m)
        if np.any(stale):
            rows = np.flatnonzero(stale)
            recomputed_rows += rows.size
            invalidation_rounds += 1
            comp = np.maximum(available[None, :], arrivals[rows, None]) + etc[rows]
            best_m[rows] = np.argmin(comp, axis=1)
            best_c[rows] = comp[np.arange(rows.size), best_m[rows]]
    return assignment, order, recomputed_rows, invalidation_rounds


@pytest.mark.parametrize(
    "builder, seed",
    [(b, s) for b in (dataset1, dataset2, dataset3) for s in (1, 7, 99, 404)]
    + [(dataset1, 2013), (dataset3, 2013)],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_marked_cache_matches_masked_loop(builder, seed):
    """Marking mapped tasks in the stage-1 cache (``best_c = inf``,
    ``best_m = -1``) maps, orders and invalidates exactly as the
    masked loop did."""
    bundle = builder(seed)
    heuristic = MinMinCompletionTime()
    alloc = heuristic.build(bundle.system, bundle.trace)
    _, arrivals, etc, _ = heuristic._prepare(bundle.system, bundle.trace)
    assignment, order, rows, rounds = masked_min_min(arrivals, etc)
    np.testing.assert_array_equal(alloc.machine_assignment, assignment)
    np.testing.assert_array_equal(alloc.scheduling_order, order)
    assert heuristic.last_stats["recomputed_rows"] == rows
    assert heuristic.last_stats["invalidation_rounds"] == rounds
