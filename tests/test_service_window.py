"""Pinned-prefix ledger and window evaluator (repro.service.window)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.service.stream import ArrivalStream, WindowBatch
from repro.service.window import CommittedLedger, WindowEvaluator
from repro.sim.evaluator import ScheduleEvaluator
from repro.workload.generator import TaskTypeMix
from repro.workload.trace import Trace


def stream_for(system, rate=0.2, window=60.0, seed=3):
    return ArrivalStream(
        mix=TaskTypeMix.uniform(system.num_task_types),
        window=window, rate=rate, seed=seed,
    )


def random_free_genes(evaluator: WindowEvaluator, n: int, seed: int):
    """Random feasible (assignments, orders) for the window's free tasks."""
    rng = np.random.default_rng(seed)
    feas = evaluator.system.feasible_task_machine[
        evaluator.trace.task_types
    ]
    T = evaluator.num_tasks
    assignments = np.empty((n, T), dtype=np.int64)
    for t in range(T):
        options = np.flatnonzero(feas[t])
        assignments[:, t] = rng.choice(options, size=n)
    orders = np.stack([rng.permutation(T) for _ in range(n)]).astype(np.int64)
    return assignments, orders


def commit_window(evaluator: WindowEvaluator, ledger, batch, seed=11):
    """Commit one random chromosome, as the service would."""
    assignments, orders = random_free_genes(evaluator, 1, seed)
    full = evaluator.evaluate_full(assignments[0], orders[0])
    C = evaluator.committed
    ledger.commit(
        batch, assignments[0], evaluator.absolute_orders(orders[0]),
        full.completion_times[C:], full.task_energies[C:],
        full.task_utilities[C:],
    )
    return full


class TestCommittedLedger:
    def test_commit_advances_order_base(self, small_system):
        stream = stream_for(small_system)
        ledger = CommittedLedger()
        b0 = stream.batch(0)
        ev0 = WindowEvaluator(small_system, ledger, b0)
        commit_window(ev0, ledger, b0)
        assert ledger.order_base == b0.count
        assert ledger.dispatched_total == b0.count
        assert int(ledger.order_keys.max()) == b0.count - 1

    def test_colliding_keys_rejected(self, small_system):
        stream = stream_for(small_system)
        ledger = CommittedLedger()
        b0 = stream.batch(0)
        ev0 = WindowEvaluator(small_system, ledger, b0)
        commit_window(ev0, ledger, b0)
        b1 = stream.batch(1)
        with pytest.raises(ScheduleError, match="collide"):
            # Raw (unshifted) keys overlap window 0's committed range.
            ledger.commit(
                b1, np.zeros(b1.count, dtype=np.int64),
                np.arange(b1.count, dtype=np.int64),
                np.zeros(b1.count), np.zeros(b1.count), np.zeros(b1.count),
            )

    def test_out_of_order_commit_rejected(self, small_system):
        stream = stream_for(small_system)
        ledger = CommittedLedger()
        b1 = stream.batch(1)
        ev1 = WindowEvaluator(small_system, ledger, b1)
        commit_window(ev1, ledger, b1)
        b0 = stream.batch(0)
        with pytest.raises(ScheduleError, match="arrival order"):
            ledger.commit(
                b0, np.zeros(b0.count, dtype=np.int64),
                np.arange(b0.count, dtype=np.int64) + ledger.order_base,
                np.zeros(b0.count), np.zeros(b0.count), np.zeros(b0.count),
            )

    def test_compact_preserves_totals_and_bumps_epoch(self, small_system):
        stream = stream_for(small_system, rate=0.3)
        ledger = CommittedLedger()
        for k in range(3):
            batch = stream.batch(k)
            ev = WindowEvaluator(small_system, ledger, batch)
            commit_window(ev, ledger, batch, seed=k)
        energy_before = ledger.total_energy
        utility_before = ledger.total_utility
        # A horizon start far past every finish makes everything
        # droppable.
        horizon = float(ledger.finish_times.max()) + 1.0
        dropped = ledger.compact(horizon)
        assert dropped == ledger.compacted_total > 0
        assert ledger.epoch == 1
        assert ledger.total_energy == pytest.approx(energy_before, rel=1e-12)
        assert ledger.total_utility == pytest.approx(utility_before, rel=1e-12)
        assert ledger.order_base == ledger.active

    def test_compact_noop_leaves_epoch(self, small_system):
        stream = stream_for(small_system)
        ledger = CommittedLedger()
        b0 = stream.batch(0)
        ev0 = WindowEvaluator(small_system, ledger, b0)
        commit_window(ev0, ledger, b0)
        # Nothing finishes by t=0, so nothing drops.
        assert ledger.compact(0.0) == 0
        assert ledger.epoch == 0

    def test_compact_renumbers_keys_densely(self, small_system):
        stream = stream_for(small_system, rate=0.3)
        ledger = CommittedLedger()
        for k in range(3):
            batch = stream.batch(k)
            ev = WindowEvaluator(small_system, ledger, batch)
            commit_window(ev, ledger, batch, seed=k)
        mid = float(np.median(ledger.finish_times))
        if ledger.compact(mid) == 0:
            pytest.skip("no droppable prefix at the median finish")
        kept = ledger.order_keys
        assert sorted(kept.tolist()) == list(range(ledger.active))
        # Queue order is preserved: along each machine queue (sorted by
        # key), finish times stay nondecreasing.
        for m in np.unique(ledger.machine_assignment):
            idx = np.flatnonzero(ledger.machine_assignment == m)
            queue = idx[np.argsort(kept[idx])]
            finishes = ledger.finish_times[queue]
            assert np.all(np.diff(finishes) >= 0)


class TestWindowEvaluator:
    def test_zero_task_window_rejected(self, small_system):
        batch = WindowBatch(
            index=0, start=0.0, end=10.0,
            task_types=np.empty(0, dtype=np.int64),
            arrival_times=np.empty(0, dtype=np.float64),
        )
        with pytest.raises(ScheduleError):
            WindowEvaluator(small_system, CommittedLedger(), batch)

    def test_matches_direct_horizon_evaluator(self, small_system):
        """Splicing free genes equals evaluating the hand-built horizon
        chromosomes on a plain ScheduleEvaluator — bit for bit."""
        stream = stream_for(small_system, rate=0.3)
        ledger = CommittedLedger()
        b0 = stream.batch(0)
        ev0 = WindowEvaluator(small_system, ledger, b0)
        commit_window(ev0, ledger, b0)
        b1 = stream.batch(1)
        ev1 = WindowEvaluator(small_system, ledger, b1)
        assignments, orders = random_free_genes(ev1, 6, seed=21)
        energies, utilities = ev1.evaluate_batch(assignments, orders)

        horizon = Trace(
            task_types=np.concatenate(
                [ledger.task_types, b1.task_types]
            ),
            arrival_times=np.concatenate(
                [ledger.arrival_times, b1.arrival_times]
            ),
            window=b1.end,
        )
        direct = ScheduleEvaluator(
            small_system, horizon, check_feasibility=False,
            kernel_method="batch",
        )
        C, F = ledger.active, b1.count
        full_a = np.empty((6, C + F), dtype=np.int64)
        full_o = np.empty((6, C + F), dtype=np.int64)
        full_a[:, :C] = ledger.machine_assignment
        full_o[:, :C] = ledger.order_keys
        full_a[:, C:] = assignments
        full_o[:, C:] = orders + ledger.order_base
        ref_e, ref_u = direct.evaluate_batch(full_a, full_o)
        np.testing.assert_array_equal(energies, ref_e)
        np.testing.assert_array_equal(utilities, ref_u)

    def test_committed_prefix_is_frozen(self, small_system):
        """Whatever the free genes are, the committed tasks' finish
        times (hence energies/utilities) never change."""
        stream = stream_for(small_system, rate=0.3)
        ledger = CommittedLedger()
        b0 = stream.batch(0)
        ev0 = WindowEvaluator(small_system, ledger, b0)
        commit_window(ev0, ledger, b0)
        b1 = stream.batch(1)
        ev1 = WindowEvaluator(small_system, ledger, b1)
        C = ev1.committed
        for seed in (5, 6, 7):
            a, o = random_free_genes(ev1, 1, seed)
            full = ev1.evaluate_full(a[0], o[0])
            np.testing.assert_array_equal(
                full.completion_times[:C], ledger.finish_times
            )
            np.testing.assert_array_equal(
                full.task_energies[:C], ledger.task_energies
            )
            np.testing.assert_array_equal(
                full.task_utilities[:C], ledger.task_utilities
            )

    def test_kernel_adoption_is_invisible_and_reuses(self, small_system):
        """Adopted kernel state changes reuse counters, never values."""
        stream = stream_for(small_system, rate=0.3)

        def run(reuse: bool):
            ledger = CommittedLedger()
            b0 = stream.batch(0)
            ev0 = WindowEvaluator(small_system, ledger, b0)
            # Route the to-be-committed chromosome through the kernel so
            # its queue states are cached before the handover, as
            # happens naturally inside the GA loop.
            a0, o0 = random_free_genes(ev0, 1, seed=32)
            ev0.evaluate_batch(a0, o0)
            full = ev0.evaluate_full(a0[0], o0[0])
            ledger.commit(
                b0, a0[0], ev0.absolute_orders(o0[0]),
                full.completion_times, full.task_energies,
                full.task_utilities,
            )
            b1 = stream.batch(1)
            ev1 = WindowEvaluator(
                small_system, ledger, b1, reuse_from=ev0 if reuse else None,
            )
            a1, o1 = random_free_genes(ev1, 8, seed=33)
            e, u = ev1.evaluate_batch(a1, o1)
            return e, u, ev1

        warm_e, warm_u, warm_ev = run(reuse=True)
        cold_e, cold_u, cold_ev = run(reuse=False)
        np.testing.assert_array_equal(warm_e, cold_e)
        np.testing.assert_array_equal(warm_u, cold_u)
        assert warm_ev.kernel_adopted
        assert not cold_ev.kernel_adopted
        warm_reused = warm_ev.cache_stats["elements_reused"]
        cold_reused = cold_ev.cache_stats["elements_reused"]
        # The adopted caches resume the committed queue prefixes; the
        # cold kernel must fold every element from scratch.
        assert warm_reused > cold_reused

    def test_stale_epoch_reuse_rejected(self, small_system):
        stream = stream_for(small_system, rate=0.3)
        ledger = CommittedLedger()
        b0 = stream.batch(0)
        ev0 = WindowEvaluator(small_system, ledger, b0)
        commit_window(ev0, ledger, b0)
        assert ledger.compact(float(ledger.finish_times.max()) + 1.0) > 0
        b1 = stream.batch(1)
        with pytest.raises(ScheduleError, match="stale"):
            WindowEvaluator(small_system, ledger, b1, reuse_from=ev0)

    def test_offsets_added_after_compaction(self, small_system):
        """Post-compaction objectives stay service-cumulative."""
        stream = stream_for(small_system, rate=0.3)
        ledger = CommittedLedger()
        b0 = stream.batch(0)
        ev0 = WindowEvaluator(small_system, ledger, b0)
        commit_window(ev0, ledger, b0)
        b1 = stream.batch(1)
        ev_pre = WindowEvaluator(small_system, ledger, b1)
        a, o = random_free_genes(ev_pre, 4, seed=41)
        pre_e, pre_u = ev_pre.evaluate_batch(a, o)
        if ledger.compact(b1.start) == 0:
            pytest.skip("window gap too small for compaction")
        ev_post = WindowEvaluator(small_system, ledger, b1)
        post_e, post_u = ev_post.evaluate_batch(a, o)
        # Energy is a pure sum, so the only difference is summation
        # order; utilities additionally depend on finish times, which
        # compaction provably preserves.
        np.testing.assert_allclose(post_e, pre_e, rtol=1e-12)
        np.testing.assert_allclose(post_u, pre_u, rtol=1e-9)
