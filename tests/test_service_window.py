"""Pinned-prefix ledger and window evaluator (repro.service.window)."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import batch_reference_row
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
    ledger.commit(
        batch, assignments[0], evaluator.absolute_orders(orders[0]),
        full.completion_times, full.task_energies, full.task_utilities,
    )
    return full


def horizon_evaluator(system, ledger, batch) -> ScheduleEvaluator:
    """A plain evaluator over committed + free tasks."""
    horizon = Trace(
        task_types=np.concatenate([ledger.task_types, batch.task_types]),
        arrival_times=np.concatenate(
            [ledger.arrival_times, batch.arrival_times]
        ),
        window=batch.end,
    )
    return ScheduleEvaluator(
        system, horizon, check_feasibility=False,
    )


def splice(ledger, assignments, orders):
    """Horizon chromosomes: the committed genes followed by free genes."""
    n = assignments.shape[0]
    return (
        np.hstack([np.tile(ledger.machine_assignment, (n, 1)), assignments]),
        np.hstack([np.tile(ledger.order_keys, (n, 1)),
                   orders + ledger.order_base]),
    )


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

        direct = horizon_evaluator(small_system, ledger, b1)
        ref_e, ref_u = direct.evaluate_batch(
            *splice(ledger, assignments, orders)
        )
        np.testing.assert_array_equal(energies, ref_e)
        np.testing.assert_array_equal(utilities, ref_u)

    def test_committed_prefix_is_frozen(self, small_system):
        """Whatever the free genes are, the committed tasks' finish
        times on the whole horizon never change — which is what lets a
        window fold its free tasks onto fixed prefix state."""
        stream = stream_for(small_system, rate=0.3)
        ledger = CommittedLedger()
        b0 = stream.batch(0)
        ev0 = WindowEvaluator(small_system, ledger, b0)
        commit_window(ev0, ledger, b0)
        b1 = stream.batch(1)
        ev1 = WindowEvaluator(small_system, ledger, b1)
        direct = horizon_evaluator(small_system, ledger, b1)
        C = ev1.committed
        for seed in (5, 6, 7):
            a, o = random_free_genes(ev1, 1, seed)
            full_a, full_o = splice(ledger, a, o)
            _, _, finish = batch_reference_row(direct, full_a[0], full_o[0])
            np.testing.assert_array_equal(finish[:C], ledger.finish_times)

    def test_kernel_adoption_is_invisible_and_reuses(self, small_system):
        """Carried prefix state changes how the prefix is built, never
        values; either way the committed elements are served from it."""
        stream = stream_for(small_system, rate=0.3)

        def run(carry: bool):
            ledger = CommittedLedger()
            b0 = stream.batch(0)
            ev0 = WindowEvaluator(small_system, ledger, b0)
            commit_window(ev0, ledger, b0, seed=32)
            b1 = stream.batch(1)
            ev1 = WindowEvaluator(
                small_system, ledger, b1,
                carried=ev0.prefix if carry else None,
            )
            a1, o1 = random_free_genes(ev1, 8, seed=33)
            e, u = ev1.evaluate_batch(a1, o1)
            return e, u, ev1

        warm_e, warm_u, warm_ev = run(carry=True)
        cold_e, cold_u, cold_ev = run(carry=False)
        np.testing.assert_array_equal(warm_e, cold_e)
        np.testing.assert_array_equal(warm_u, cold_u)
        assert warm_ev.kernel_adopted
        assert not cold_ev.kernel_adopted
        C, F = warm_ev.committed, warm_ev.num_tasks
        assert C > 0
        for ev in (warm_ev, cold_ev):
            stats = ev.cache_stats
            assert stats["elements_total"] == 8 * (C + F)
            assert stats["elements_reused"] == 8 * C
            assert stats["reuse_rate"] == C / (C + F)

    def test_stale_epoch_reuse_rejected(self, small_system):
        stream = stream_for(small_system, rate=0.3)
        ledger = CommittedLedger()
        b0 = stream.batch(0)
        ev0 = WindowEvaluator(small_system, ledger, b0)
        commit_window(ev0, ledger, b0)
        assert ledger.compact(float(ledger.finish_times.max()) + 1.0) > 0
        b1 = stream.batch(1)
        with pytest.raises(ScheduleError, match="stale"):
            WindowEvaluator(small_system, ledger, b1, carried=ev0.prefix)

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
