"""Window evaluation as a continuation of the committed-prefix folds.

:class:`~repro.service.window.WindowEvaluator` evaluates only a
window's free tasks, seeding the batch kernel's folds with per-machine
:class:`~repro.service.window.PrefixState`.  These tests pin it bit for
bit to a plain batch-mode :class:`~repro.sim.evaluator.ScheduleEvaluator`
over the whole horizon (committed tasks followed by the free ones), and
pin carried state to state folded from the ledger afresh.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.service.stream import ArrivalStream
from repro.service.window import CommittedLedger, PrefixState, WindowEvaluator
from repro.sim.batchkernel import batch_reference_row
from repro.sim.evaluator import ScheduleEvaluator
from repro.sim.schedule import ResourceAllocation
from repro.workload.generator import TaskTypeMix
from repro.workload.trace import Trace


def stream_for(system, rate=0.3, window=60.0, seed=3):
    return ArrivalStream(
        mix=TaskTypeMix.uniform(system.num_task_types),
        window=window, rate=rate, seed=seed,
    )


def busy_batches(stream, count):
    """The first *count* windows with at least one arrival."""
    batches, index = [], 0
    while len(batches) < count:
        batch = stream.batch(index)
        index += 1
        if batch.count:
            batches.append(batch)
    return batches


def free_genes(system, batch, n, rng, distinct_keys=True, machines=None):
    """Random feasible free genes; *machines* restricts the choice."""
    feas = system.feasible_task_machine[batch.task_types]
    if machines is not None:
        allowed = np.zeros(system.num_machines, dtype=bool)
        allowed[machines] = True
        feas = feas & allowed
    F = batch.count
    assignments = np.empty((n, F), dtype=np.int64)
    for t in range(F):
        assignments[:, t] = rng.choice(np.flatnonzero(feas[t]), size=n)
    if distinct_keys:
        orders = np.stack([rng.permutation(F) for _ in range(n)])
    else:
        # Few distinct keys: ties fall back to task index.
        orders = rng.integers(0, max(F // 2, 1), size=(n, F))
    return assignments, orders.astype(np.int64)


def horizon_reference(system, ledger, batch):
    """A plain evaluator over committed + free tasks."""
    trace = Trace(
        task_types=np.concatenate([ledger.task_types, batch.task_types]),
        arrival_times=np.concatenate(
            [ledger.arrival_times, batch.arrival_times]
        ),
        window=batch.end,
    )
    return ScheduleEvaluator(
        system, trace, check_feasibility=False,
    )


def splice(ledger, assignments, orders):
    n = assignments.shape[0]
    return (
        np.hstack([np.tile(ledger.machine_assignment, (n, 1)), assignments]),
        np.hstack([np.tile(ledger.order_keys, (n, 1)),
                   orders + ledger.order_base]),
    )


def assert_matches_horizon(system, ledger, batch, evaluator, assignments,
                           orders):
    energies, utilities = evaluator.evaluate_batch(assignments, orders)
    reference = horizon_reference(system, ledger, batch)
    ref_e, ref_u = reference.evaluate_batch(
        *splice(ledger, assignments, orders)
    )
    if ledger.energy_offset or ledger.utility_offset:
        ref_e = ref_e + ledger.energy_offset
        ref_u = ref_u + ledger.utility_offset
    np.testing.assert_array_equal(energies, ref_e)
    np.testing.assert_array_equal(utilities, ref_u)


def commit(evaluator, ledger, batch, assignment, order):
    full = evaluator.evaluate_full(assignment, order)
    ledger.commit(
        batch, assignment, evaluator.absolute_orders(order),
        full.completion_times, full.task_energies, full.task_utilities,
    )


def assert_states_equal(a: PrefixState, b: PrefixState):
    assert (a.epoch, a.committed) == (b.epoch, b.committed)
    for name in ("cs_end", "runmax_end", "u_partial", "e_partial"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestBatchMatchesHorizon:
    @pytest.mark.parametrize("distinct_keys", [True, False])
    def test_random_free_genes_over_windows(self, small_system,
                                            distinct_keys):
        rng = np.random.default_rng(7)
        ledger = CommittedLedger()
        carried = None
        for batch in busy_batches(stream_for(small_system), 5):
            ev = WindowEvaluator(small_system, ledger, batch, carried=carried)
            a, o = free_genes(small_system, batch, 12, rng, distinct_keys)
            assert_matches_horizon(small_system, ledger, batch, ev, a, o)
            commit(ev, ledger, batch, a[0], o[0])
            carried = ev.prefix
        assert ledger.active > 0

    def test_machines_without_committed_tasks(self, small_system):
        rng = np.random.default_rng(11)
        ledger = CommittedLedger()
        b0, b1 = busy_batches(stream_for(small_system), 2)
        ev0 = WindowEvaluator(small_system, ledger, b0)
        a, o = free_genes(small_system, b0, 1, rng, machines=[0, 1])
        commit(ev0, ledger, b0, a[0], o[0])
        ev1 = WindowEvaluator(small_system, ledger, b1, carried=ev0.prefix)
        idle = np.setdiff1d(np.arange(small_system.num_machines),
                            ledger.machine_assignment)
        assert idle.size >= small_system.num_machines - 2
        assert np.all(np.isneginf(ev1.prefix.runmax_end[idle]))
        a, o = free_genes(small_system, b1, 16, rng)
        assert_matches_horizon(small_system, ledger, b1, ev1, a, o)

    def test_compaction_offsets_and_rebuilt_state(self, small_system):
        rng = np.random.default_rng(5)
        ledger = CommittedLedger()
        stream = stream_for(small_system, rate=0.15, window=200.0)
        batches = busy_batches(stream, 6)
        compacted = False
        carried = None
        for batch in batches:
            if ledger.active and ledger.compact(batch.start):
                compacted = True
                carried = None
            ev = WindowEvaluator(small_system, ledger, batch, carried=carried)
            a, o = free_genes(small_system, batch, 10, rng)
            assert_matches_horizon(small_system, ledger, batch, ev, a, o)
            commit(ev, ledger, batch, a[0], o[0])
            carried = ev.prefix
        assert compacted and ledger.epoch > 0
        assert ledger.energy_offset > 0 and ledger.utility_offset > 0

    def test_empty_batch_of_rows(self, small_system):
        batch = busy_batches(stream_for(small_system), 1)[0]
        ev = WindowEvaluator(small_system, CommittedLedger(), batch)
        empty = np.empty((0, batch.count), dtype=np.int64)
        energies, utilities = ev.evaluate_batch(empty, empty)
        assert energies.shape == utilities.shape == (0,)


class TestEvaluateFull:
    def test_matches_scalar_oracle(self, small_system):
        rng = np.random.default_rng(3)
        ledger = CommittedLedger()
        carried = None
        for batch in busy_batches(stream_for(small_system), 4):
            ev = WindowEvaluator(small_system, ledger, batch, carried=carried)
            reference = horizon_reference(small_system, ledger, batch)
            C = ledger.active
            a, o = free_genes(small_system, batch, 3, rng,
                              distinct_keys=False)
            energies, utilities = ev.evaluate_batch(a, o)
            full_a, full_o = splice(ledger, a, o)
            for row in range(3):
                full = ev.evaluate_full(a[row], o[row])
                _, _, finish = batch_reference_row(
                    reference, full_a[row], full_o[row]
                )
                expected = reference.evaluate(ResourceAllocation(
                    machine_assignment=full_a[row],
                    scheduling_order=full_o[row],
                ))
                np.testing.assert_array_equal(full.completion_times,
                                              finish[C:])
                np.testing.assert_array_equal(full.start_times,
                                              expected.start_times[C:])
                np.testing.assert_array_equal(full.task_utilities,
                                              expected.task_utilities[C:])
                np.testing.assert_array_equal(full.task_energies,
                                              expected.task_energies[C:])
                assert full.energy == energies[row]
                assert full.utility == utilities[row]
            commit(ev, ledger, batch, a[0], o[0])
            carried = ev.prefix


class TestCarriedState:
    def test_carried_equals_rebuilt_over_a_run(self, ds1_bundle):
        system = ds1_bundle.system
        rng = np.random.default_rng(2013)
        ledger = CommittedLedger()
        stream = stream_for(system, rate=0.1, window=60.0, seed=2013)
        carried = None
        adopted = 0
        for k, batch in enumerate(busy_batches(stream, 24)):
            if k and k % 6 == 0 and ledger.compact(batch.start):
                carried = None
            ev = WindowEvaluator(system, ledger, batch, carried=carried)
            rebuilt = WindowEvaluator(system, ledger, batch)
            assert ev.kernel_adopted == (carried is not None)
            adopted += ev.kernel_adopted
            assert_states_equal(ev.prefix, rebuilt.prefix)
            a, o = free_genes(system, batch, 8, rng)
            np.testing.assert_array_equal(
                ev.evaluate_batch(a, o), rebuilt.evaluate_batch(a, o)
            )
            commit(ev, ledger, batch, a[0], o[0])
            carried = ev.prefix
        assert ledger.compacted_total > 0
        assert adopted >= 20

