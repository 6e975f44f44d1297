"""Tests for the vectorized schedule evaluator."""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.sim.evaluator import ScheduleEvaluator
from repro.sim.schedule import ResourceAllocation
from repro.workload.trace import Trace

from conftest import make_tiny_system, random_allocation


class TestHandComputedSchedule:
    """A fully hand-verified scenario on the tiny system.

    Machine 0 (ETC column [10, 30, 8]); tasks 0 (type 0, arr 0),
    3 (type 0, arr 15) on machine 0 in order [0, 3]; task 1 (type 1,
    arr 5) alone on machine 1 (ETC 15); tasks 2 and 4 on machine 2;
    task 5 on machine 3.
    """

    def make(self, tiny_system):
        trace = Trace(
            task_types=np.array([0, 1, 2, 0, 1, 2]),
            arrival_times=np.array([0.0, 5.0, 10.0, 15.0, 20.0, 25.0]),
            window=30.0,
        )
        alloc = ResourceAllocation(
            machine_assignment=np.array([0, 1, 2, 0, 2, 3]),
            scheduling_order=np.array([0, 1, 2, 3, 4, 5]),
        )
        return ScheduleEvaluator(tiny_system, trace), trace, alloc

    def test_completion_times(self, tiny_system):
        ev, trace, alloc = self.make(tiny_system)
        res = ev.evaluate(alloc)
        # Machine 0: task 0 starts 0, ends 10; task 3 arrives 15 > 10,
        # starts 15, ends 25.
        assert res.completion_times[0] == pytest.approx(10.0)
        assert res.start_times[3] == pytest.approx(15.0)
        assert res.completion_times[3] == pytest.approx(25.0)
        # Machine 1: task 1 starts at its arrival 5, ETC(1,1)=15 -> 20.
        assert res.completion_times[1] == pytest.approx(20.0)
        # Machine 2: task 2 (type 2, ETC 8) 10->18; task 4 (type 1,
        # ETC(1,2)=25) arrives 20 > 18 -> 20->45.
        assert res.completion_times[2] == pytest.approx(18.0)
        assert res.completion_times[4] == pytest.approx(45.0)
        # Machine 3: task 5 (type 2, ETC 8): 25->33.
        assert res.completion_times[5] == pytest.approx(33.0)
        assert res.makespan == pytest.approx(45.0)

    def test_energy_is_sum_of_eec(self, tiny_system):
        ev, trace, alloc = self.make(tiny_system)
        res = ev.evaluate(alloc)
        eec = tiny_system.eec_task_machine
        expected = (
            eec[0, 0] + eec[1, 1] + eec[2, 2] + eec[0, 0] + eec[1, 2] + eec[2, 3]
        )
        assert res.energy == pytest.approx(expected)
        np.testing.assert_allclose(res.task_energies.sum(), res.energy)

    def test_utility_from_tufs(self, tiny_system):
        ev, trace, alloc = self.make(tiny_system)
        res = ev.evaluate(alloc)
        expected = sum(
            tiny_system.task_types[trace.task_types[i]].utility_function(
                res.completion_times[i] - trace.arrival_times[i]
            )
            for i in range(6)
        )
        assert res.utility == pytest.approx(expected)

    def test_queue_idles_until_arrival(self, tiny_system):
        """Paper: a machine sits idle when its next task has not arrived
        — even if a later-keyed task is already waiting."""
        trace = Trace(
            task_types=np.array([0, 0]),
            arrival_times=np.array([0.0, 20.0]),
            window=30.0,
        )
        # Task 1 (arriving at 20) is keyed BEFORE task 0 on machine 0.
        alloc = ResourceAllocation(
            machine_assignment=np.array([0, 0]),
            scheduling_order=np.array([1, 0]),
        )
        ev = ScheduleEvaluator(tiny_system, trace)
        res = ev.evaluate(alloc)
        # Machine idles to 20, runs task 1 (20->30), then task 0 (30->40).
        assert res.start_times[1] == pytest.approx(20.0)
        assert res.completion_times[1] == pytest.approx(30.0)
        assert res.start_times[0] == pytest.approx(30.0)
        assert res.completion_times[0] == pytest.approx(40.0)


class TestValidation:
    def test_wrong_task_count(self, tiny_evaluator):
        alloc = ResourceAllocation(np.array([0]), np.array([0]))
        with pytest.raises(ScheduleError):
            tiny_evaluator.evaluate(alloc)

    def test_machine_out_of_range(self, tiny_evaluator, tiny_trace):
        alloc = ResourceAllocation(
            np.full(tiny_trace.num_tasks, 99), np.arange(tiny_trace.num_tasks)
        )
        with pytest.raises(ScheduleError):
            tiny_evaluator.evaluate(alloc)

    def test_infeasible_assignment_caught(self):
        from test_model_system import make_special_system
        from repro.utility.tuf import TimeUtilityFunction

        sys_ = make_special_system().with_utility_functions(
            [TimeUtilityFunction.linear(5.0, 0.01)] * 2
        )
        trace = Trace(np.array([1]), np.array([0.0]), window=10.0)
        ev = ScheduleEvaluator(sys_, trace)
        # Task type 1 cannot run on machine 2 (special).
        bad = ResourceAllocation(np.array([2]), np.array([0]))
        with pytest.raises(ScheduleError):
            ev.evaluate(bad)

    @pytest.mark.parametrize("bad", [-1, 99])
    def test_batch_machine_out_of_range(self, tiny_evaluator, tiny_trace,
                                        bad):
        T = tiny_trace.num_tasks
        assignments = np.zeros((2, T), dtype=np.int64)
        assignments[1, T - 1] = bad
        with pytest.raises(ScheduleError, match="out of range"):
            tiny_evaluator.evaluate_batch(
                assignments, np.tile(np.arange(T), (2, 1))
            )

    @pytest.mark.parametrize("kind", ["cached", "uncached", "window",
                                      "makespan"])
    @pytest.mark.parametrize("bad", ["negative", "num_machines"])
    def test_validation_guards_clipped_gathers(self, small_system,
                                               small_trace, kind, bad):
        """The kernel gathers with mode="clip", so an invalid machine
        index must be stopped by validation on every evaluator, with
        the cache on or off, for int64 and int32 genes alike (the
        unsigned view must match the gene width), and never be clipped
        into range."""
        from repro.service.window import CommittedLedger, WindowEvaluator
        from repro.sim.makespan import MakespanEnergyEvaluator
        from test_service_window_fold import busy_batches, stream_for

        task_types = small_trace.task_types
        if kind == "cached":
            ev = ScheduleEvaluator(small_system, small_trace, cache_size=64)
        elif kind == "uncached":
            ev = ScheduleEvaluator(small_system, small_trace, cache_size=0)
        elif kind == "window":
            batch = busy_batches(stream_for(small_system), 1)[0]
            ev = WindowEvaluator(small_system, CommittedLedger(), batch)
            task_types = batch.task_types
        else:
            ev = MakespanEnergyEvaluator(small_system, small_trace)
        T = len(task_types)
        feasible = small_system.feasible_task_machine[task_types]
        for dtype in (np.int64, np.int32):
            assignments = np.tile(np.argmax(feasible, axis=1), (3, 1))
            assignments = assignments.astype(dtype)
            orders = np.tile(np.arange(T, dtype=dtype), (3, 1))
            ev.evaluate_batch(assignments, orders)
            assignments[1, T - 1] = (
                -1 if bad == "negative" else small_system.num_machines
            )
            with pytest.raises(ScheduleError, match="out of range"):
                ev.evaluate_batch(assignments, orders)

    def test_batch_shape_validation(self, tiny_evaluator):
        with pytest.raises(ScheduleError):
            tiny_evaluator.evaluate_batch(
                np.zeros((2, 3), dtype=int), np.zeros((2, 6), dtype=int)
            )


class TestBatchConsistency:
    def test_batch_matches_single(self, small_system, small_trace, small_evaluator):
        rng = np.random.default_rng(1)
        N = 12
        allocs = [
            random_allocation(small_system, small_trace, seed=i) for i in range(N)
        ]
        assignments = np.stack([a.machine_assignment for a in allocs])
        orders = np.stack([a.scheduling_order for a in allocs])
        energies, utilities = small_evaluator.evaluate_batch(assignments, orders)
        for i, alloc in enumerate(allocs):
            res = small_evaluator.evaluate(alloc)
            assert energies[i] == pytest.approx(res.energy)
            assert utilities[i] == pytest.approx(res.utility)

    def test_empty_batch(self, small_evaluator):
        e, u = small_evaluator.evaluate_batch(
            np.empty((0, small_evaluator.num_tasks), dtype=int),
            np.empty((0, small_evaluator.num_tasks), dtype=int),
        )
        assert e.shape == (0,) and u.shape == (0,)

    def test_duplicate_order_keys_stable(self, small_system, small_trace):
        """Duplicate keys break ties by task index — identical results
        for identical inputs, and order-key ties resolved stably."""
        ev = ScheduleEvaluator(small_system, small_trace)
        T = small_trace.num_tasks
        alloc = ResourceAllocation(
            machine_assignment=np.zeros(T, dtype=int),
            scheduling_order=np.zeros(T, dtype=int),  # all tied
        )
        res = ev.evaluate(alloc)
        # Ties by index == arrival order on one machine: completions
        # strictly increase.
        assert np.all(np.diff(res.completion_times) > 0)


class TestObjectivesShortcut:
    def test_objectives_tuple(self, tiny_evaluator, tiny_trace):
        alloc = ResourceAllocation(
            np.zeros(tiny_trace.num_tasks, dtype=int),
            np.arange(tiny_trace.num_tasks),
        )
        e, u = tiny_evaluator.objectives(alloc)
        res = tiny_evaluator.evaluate(alloc)
        assert (e, u) == (res.energy, res.utility)


class TestQueueGroups:
    def test_identity_default(self, small_system, small_trace, small_evaluator):
        """Default queue groups: one queue per machine."""
        assert small_evaluator._num_queues == small_system.num_machines

    def test_bad_shape_rejected(self, small_system, small_trace):
        with pytest.raises(ScheduleError):
            ScheduleEvaluator(
                small_system, small_trace,
                queue_groups=np.zeros(3, dtype=np.int64),
            )

    def test_negative_group_rejected(self, small_system, small_trace):
        groups = np.zeros(small_system.num_machines, dtype=np.int64)
        groups[0] = -1
        with pytest.raises(ScheduleError):
            ScheduleEvaluator(small_system, small_trace, queue_groups=groups)

    def test_all_machines_one_queue(self, small_system, small_trace):
        """Collapsing every machine into one queue serializes the whole
        trace: makespan >= sum of executed times minus idle slack, and
        no two tasks overlap."""
        groups = np.zeros(small_system.num_machines, dtype=np.int64)
        ev = ScheduleEvaluator(small_system, small_trace, queue_groups=groups)
        T = small_trace.num_tasks
        alloc = ResourceAllocation(
            machine_assignment=np.arange(T) % small_system.num_machines,
            scheduling_order=np.arange(T),
        )
        res = ev.evaluate(alloc)
        order = np.argsort(res.start_times)
        starts = res.start_times[order]
        finishes = res.completion_times[order]
        assert np.all(starts[1:] >= finishes[:-1] - 1e-9)
