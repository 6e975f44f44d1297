"""Queue-state cache, batch-composition independence, and fold exactness.

The cache contract is that caching is invisible: any sequence of
``evaluate_batch`` calls returns bit-identical objectives with the
queue-state cache on, off, or pre-warmed, in any batch composition.
That only holds because the queue fold is *exact* — each queue's
numbers depend on that queue's ordered content alone, and the running
maximum is the true maximum, never an offset approximation.  These
tests pin down both halves, including a pure-Python mirror of the fold
at extreme magnitudes where an offset trick would lose bits.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.operators import FeasibleMachines
from repro.errors import ScheduleError
from repro.sim.batchkernel import (
    FoldPool,
    QueueStateTable,
    SortScratch,
    fold_queues,
    queue_order,
)
from repro.sim.evaluator import ScheduleEvaluator
from repro.sim.schedule import ResourceAllocation


def make_batch(system, trace, n_rows, seed):
    """Random feasible (assignments, orders) rows for (system, trace)."""
    rng = np.random.default_rng(seed)
    feasible = FeasibleMachines.from_system_trace(system, trace)
    assignments = feasible.sample_matrix(n_rows, rng)
    orders = np.array(
        [rng.permutation(trace.num_tasks) for _ in range(n_rows)]
    )
    return assignments, orders


def make_evaluator(system, trace, **kwargs):
    kwargs.setdefault("check_feasibility", False)
    return ScheduleEvaluator(system, trace, **kwargs)


# -- cache transparency -------------------------------------------------------


class TestCacheTransparency:
    def test_cache_on_off_bit_identical(self, small_system, small_trace):
        assignments, orders = make_batch(small_system, small_trace, 40, 0)
        cold = make_evaluator(small_system, small_trace, cache_size=0)
        warm = make_evaluator(small_system, small_trace, cache_size=1000)
        e0, u0 = cold.evaluate_batch(assignments, orders)
        e1, u1 = warm.evaluate_batch(assignments, orders)
        np.testing.assert_array_equal(e0, e1)
        np.testing.assert_array_equal(u0, u1)
        first_misses = warm.cache_stats["misses"]
        # Second pass: every queue hits, still bit-identical.
        e2, u2 = warm.evaluate_batch(assignments, orders)
        np.testing.assert_array_equal(e0, e2)
        np.testing.assert_array_equal(u0, u2)
        assert warm.cache_stats["hits"] == first_misses
        assert warm.cache_stats["misses"] == first_misses

    def test_repeated_rows_within_a_batch(self, small_system, small_trace):
        assignments, orders = make_batch(small_system, small_trace, 6, 1)
        dup = np.array([0, 1, 0, 2, 1, 0, 5, 5])
        cold = make_evaluator(small_system, small_trace, cache_size=0)
        warm = make_evaluator(small_system, small_trace)
        e0, u0 = cold.evaluate_batch(assignments[dup], orders[dup])
        e1, u1 = warm.evaluate_batch(assignments[dup], orders[dup])
        np.testing.assert_array_equal(e0, e1)
        np.testing.assert_array_equal(u0, u1)

    def test_partial_hit_batch(self, small_system, small_trace):
        """A batch mixing cached and new queues must equal a cold pass."""
        assignments, orders = make_batch(small_system, small_trace, 30, 2)
        warm = make_evaluator(small_system, small_trace)
        warm.evaluate_batch(assignments[:17], orders[:17])  # pre-warm a prefix
        prefix_queues = warm.cache_stats["misses"]
        cold = make_evaluator(small_system, small_trace, cache_size=0)
        e0, u0 = cold.evaluate_batch(assignments, orders)
        e1, u1 = warm.evaluate_batch(assignments, orders)
        np.testing.assert_array_equal(e0, e1)
        np.testing.assert_array_equal(u0, u1)
        stats = warm.cache_stats
        assert stats["hits"] >= prefix_queues
        assert stats["misses"] > prefix_queues  # the 13 new rows folded

    def test_batch_composition_independence(self, small_system, small_trace):
        """Row-by-row evaluation equals one full batch, bit for bit —
        the property that makes cache hits indistinguishable from
        fresh folds under any interleaving."""
        assignments, orders = make_batch(small_system, small_trace, 25, 3)
        ev = make_evaluator(small_system, small_trace, cache_size=0)
        e_full, u_full = ev.evaluate_batch(assignments, orders)
        for i in range(25):
            e_i, u_i = ev.evaluate_batch(
                assignments[i : i + 1], orders[i : i + 1]
            )
            assert e_i[0] == e_full[i]
            assert u_i[0] == u_full[i]

    def test_single_evaluate_matches_batch_row(self, small_system, small_trace):
        assignments, orders = make_batch(small_system, small_trace, 8, 4)
        ev = make_evaluator(small_system, small_trace, cache_size=0)
        e_b, u_b = ev.evaluate_batch(assignments, orders)
        for i in range(8):
            result = ev.evaluate(
                ResourceAllocation(
                    machine_assignment=assignments[i],
                    scheduling_order=orders[i],
                )
            )
            assert result.energy == e_b[i]
            assert result.utility == u_b[i]

    def test_large_order_keys_use_int64_digest(self, small_system, small_trace):
        """Order keys past the kernel's per-key hash table take the
        arithmetic-mix fingerprint; results stay identical to the
        uncached kernel (ordering is unchanged by the constant shift)
        and to the small-key run."""
        assignments, orders = make_batch(small_system, small_trace, 10, 5)
        big_orders = orders + 2**40
        cold = make_evaluator(small_system, small_trace, cache_size=0)
        warm = make_evaluator(small_system, small_trace)
        e0, u0 = cold.evaluate_batch(assignments, big_orders)
        e1, u1 = warm.evaluate_batch(assignments, big_orders)
        np.testing.assert_array_equal(e0, e1)
        np.testing.assert_array_equal(u0, u1)
        e2, u2 = warm.evaluate_batch(assignments, big_orders)
        np.testing.assert_array_equal(e0, e2)
        np.testing.assert_array_equal(u0, u2)
        e3, u3 = cold.evaluate_batch(assignments, orders)
        np.testing.assert_array_equal(e0, e3)
        np.testing.assert_array_equal(u0, u3)

    def test_workspace_growth_across_batch_sizes(self, small_system, small_trace):
        """Grow-only kernel scratch and fold pool serve shrinking and
        growing batches without contaminating results."""
        assignments, orders = make_batch(small_system, small_trace, 32, 6)
        ev = make_evaluator(small_system, small_trace, cache_size=0)
        fresh = make_evaluator(small_system, small_trace, cache_size=0)
        e_all, u_all = fresh.evaluate_batch(assignments, orders)
        for lo, hi in [(0, 3), (3, 25), (25, 30), (0, 32), (30, 32)]:
            e, u = ev.evaluate_batch(assignments[lo:hi], orders[lo:hi])
            np.testing.assert_array_equal(e, e_all[lo:hi])
            np.testing.assert_array_equal(u, u_all[lo:hi])


# -- cache mechanics ----------------------------------------------------------


def table_keys(n):
    keys = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return keys, np.arange(n, dtype=np.uint64)


class TestCacheMechanics:
    def test_clear_on_full(self):
        table = QueueStateTable(n_slots_log2=4)  # holds up to 8 entries
        keys, checks = table_keys(9)
        values = [np.arange(9, dtype=np.float64)] * 3
        table.insert(keys[:8], checks[:8], *(v[:8] for v in values))
        assert table.entries == 8
        found, _ = table.lookup(keys[:8], checks[:8])
        assert found.all()
        # Past half load: clears, then stores.
        table.insert(keys[8:], checks[8:], *(v[8:] for v in values))
        assert table.entries == 1
        assert table.evictions == 1
        found, slots = table.lookup(keys, checks)
        assert found.tolist() == [False] * 8 + [True]
        assert table.values[0][slots[8]] == 8.0

    def test_stats_and_clear(self, small_system, small_trace):
        assignments, orders = make_batch(small_system, small_trace, 5, 7)
        ev = make_evaluator(small_system, small_trace)
        T = small_trace.num_tasks
        ev.evaluate_batch(assignments, orders)
        queues = ev.cache_stats["misses"]
        ev.evaluate_batch(assignments, orders)
        stats = ev.cache_stats
        assert stats == {
            "hits": queues,
            "misses": queues,
            "entries": queues,
            "evictions": 0,
            "hit_rate": 0.5,
            "elements_total": 10 * T,
            "elements_reused": 5 * T,
            "reuse_rate": 0.5,
        }
        ev.clear_cache()
        assert ev.cache_stats["entries"] == 0
        # Counters are lifetime totals: a clear only empties the table.
        ev.evaluate_batch(assignments, orders)
        stats = ev.cache_stats
        assert stats["misses"] == 2 * queues
        assert stats["hits"] == queues
        assert stats["entries"] == queues

    def test_disabled_cache_stats(self, small_system, small_trace):
        ev = make_evaluator(small_system, small_trace, cache_size=0)
        ev.evaluate_batch(*make_batch(small_system, small_trace, 4, 9))
        ev.evaluate_batch(*make_batch(small_system, small_trace, 4, 9))
        stats = ev.cache_stats
        assert stats["hits"] == 0 and stats["entries"] == 0
        assert stats["hit_rate"] == 0.0 and stats["reuse_rate"] == 0.0
        ev.clear_cache()  # must not raise

    def test_distinct_chromosomes_distinct_keys(self, small_system,
                                                small_trace):
        """Changing one gene changes its queue's fingerprint: the
        changed queue is folded again, the untouched ones are reused."""
        assignments, orders = make_batch(small_system, small_trace, 1, 10)
        ev = make_evaluator(small_system, small_trace)
        ev.evaluate_batch(assignments, orders)
        queues = ev.cache_stats["misses"]
        new_order = orders.copy()
        new_order[0, 3] = 10 * small_trace.num_tasks  # task 3 now last
        ev.evaluate_batch(assignments, new_order)
        batch = ev._batch_kernel.last_batch
        assert batch["queue_misses"] == 1
        assert batch["queue_hits"] == queues - 1
        feasible = FeasibleMachines.from_system_trace(small_system,
                                                      small_trace)
        task = int(np.flatnonzero(feasible.counts > 1)[0])
        moved = assignments.copy()
        moved[0, task] = next(m for m in feasible.padded[task]
                              if m != assignments[0, task])
        ev.evaluate_batch(moved, orders)
        assert ev._batch_kernel.last_batch["queue_misses"] >= 1

    def test_invalid_construction(self, small_system, small_trace):
        with pytest.raises(ScheduleError):
            make_evaluator(small_system, small_trace, cache_size=-1)
        with pytest.raises(ValueError):
            QueueStateTable(n_slots_log2=2)


# -- fold exactness -----------------------------------------------------------


#: TUF stand-in: the fold tests pin finish times, not utilities.
ZERO_TUF = SimpleNamespace(
    evaluate=lambda task_types, elapsed: np.zeros(np.shape(elapsed))
)


def fold_finish_times(group, order_key, arrivals, exec_times, use_pool=False):
    """Per-element finish times from :func:`fold_queues`, input order."""
    n = group.shape[0]
    perm = queue_order(group, order_key, SortScratch() if use_pool else None)
    folds = fold_queues(
        group[perm], exec_times[perm], arrivals[perm],
        np.zeros(n, dtype=np.int64), np.zeros(n), ZERO_TUF,
        pool=FoldPool() if use_pool else None,
    )
    finish = np.empty(n)
    finish[perm] = folds.finish
    return finish


def mirror_finish_times(group, order_key, arrivals, exec_times):
    """Pure-Python mirror of the queue fold.

    Replays its exact floating-point operation order — stable
    (group, order) sort, per-queue sequential cumulative sum from 0.0,
    ``a − cs_{j−1}`` keys, true running maximum — one scalar at a time.
    """
    n = group.shape[0]
    finish = np.empty(n, dtype=np.float64)
    current = None
    for i in np.lexsort((np.arange(n), order_key, group)):
        if group[i] != current:
            current = group[i]
            cs = 0.0
            runmax = -math.inf
        runmax = max(runmax, float(arrivals[i]) - cs)
        cs = cs + float(exec_times[i])
        finish[i] = runmax + cs
    return finish


def random_kernel_inputs(rng, n, queues, arrival_scale=1.0, order_span=None):
    group = rng.integers(0, queues, size=n)
    span = order_span if order_span is not None else n
    order_key = rng.integers(0, span, size=n)
    arrivals = rng.uniform(0.0, 100.0, size=n) * arrival_scale
    exec_times = rng.uniform(0.1, 30.0, size=n)
    return group, order_key, arrivals, exec_times


class TestKernelExactness:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("use_pool", [False, True])
    def test_fast_matches_python_mirror(self, seed, use_pool):
        """The production fold (successor of the retired per-row
        ``fast`` kernel) equals its scalar mirror, with and without
        the grow-only buffers."""
        rng = np.random.default_rng(seed)
        inputs = random_kernel_inputs(rng, 200, queues=9)
        np.testing.assert_array_equal(
            fold_finish_times(*inputs, use_pool=use_pool),
            mirror_finish_times(*inputs),
        )

    @pytest.mark.parametrize("row_block", [10, 50])
    def test_row_block_matches_mirror(self, row_block):
        """Batch layout: queue labels ``row × Q + queue`` keep rows
        apart, and each queue's sums start from zero — exactly as the
        batch kernel drives the fold."""
        rng = np.random.default_rng(10)
        rows = 200 // row_block
        group, order_key, arrivals, exec_times = random_kernel_inputs(
            rng, 200, queues=5
        )
        group = group + np.repeat(np.arange(rows), row_block) * 5
        np.testing.assert_array_equal(
            fold_finish_times(group, order_key, arrivals, exec_times,
                              use_pool=True),
            mirror_finish_times(group, order_key, arrivals, exec_times),
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_at_extreme_magnitudes(self, seed):
        """Arrivals around 2⁴⁰ with full mantissas across many queues:
        the regime where ``queue × big`` offsets would round away low
        bits.  The fold uses no offsets and matches the scalar mirror
        bit for bit."""
        rng = np.random.default_rng(100 + seed)
        n = 400
        group, order_key, _, _ = random_kernel_inputs(rng, n, queues=50)
        arrivals = 2.0**40 + rng.uniform(0.0, 1.0, size=n)
        exec_times = rng.uniform(1e-6, 1e-3, size=n)
        np.testing.assert_array_equal(
            fold_finish_times(group, order_key, arrivals, exec_times),
            mirror_finish_times(group, order_key, arrivals, exec_times),
        )

    def test_negative_and_huge_order_keys(self):
        """The composite-key sort handles extreme int64 order keys (falls
        back to lexsort past the overflow guard) without changing the
        result."""
        rng = np.random.default_rng(30)
        group, _, arrivals, exec_times = random_kernel_inputs(rng, 64, queues=4)
        order_key = rng.integers(-(2**62), 2**62, size=64)
        np.testing.assert_array_equal(
            fold_finish_times(group, order_key, arrivals, exec_times,
                              use_pool=True),
            mirror_finish_times(group, order_key, arrivals, exec_times),
        )
