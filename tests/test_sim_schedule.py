"""Tests for the ResourceAllocation representation."""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.sim.schedule import ResourceAllocation


def make_alloc() -> ResourceAllocation:
    return ResourceAllocation(
        machine_assignment=np.array([0, 1, 0, 2]),
        scheduling_order=np.array([3, 0, 1, 2]),
    )


class TestConstruction:
    def test_basic(self):
        a = make_alloc()
        assert a.num_tasks == 4

    def test_immutable(self):
        a = make_alloc()
        with pytest.raises(ValueError):
            a.machine_assignment[0] = 9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ScheduleError):
            ResourceAllocation(np.array([0, 1]), np.array([0]))

    def test_negative_machine_rejected(self):
        with pytest.raises(ScheduleError):
            ResourceAllocation(np.array([-1]), np.array([0]))

    def test_empty_rejected(self):
        with pytest.raises(ScheduleError):
            ResourceAllocation(np.array([], dtype=int), np.array([], dtype=int))


class TestFromRows:
    def test_matches_per_row_construction(self):
        assignments = np.array([[0, 1, 2], [2, 2, 0]])
        orders = np.array([[2, 0, 1], [0, 0, 1]])
        allocations = ResourceAllocation.from_rows(assignments, orders)
        assert len(allocations) == 2
        for row, allocation in enumerate(allocations):
            expected = ResourceAllocation(assignments[row], orders[row])
            assert allocation.num_tasks == 3
            np.testing.assert_array_equal(allocation.machine_assignment,
                                          expected.machine_assignment)
            np.testing.assert_array_equal(allocation.scheduling_order,
                                          expected.scheduling_order)

    def test_rows_are_private_and_immutable(self):
        assignments = np.array([[0, 1], [1, 0]])
        orders = np.array([[0, 1], [1, 0]])
        allocation = ResourceAllocation.from_rows(assignments, orders)[0]
        assignments[0, 0] = 5
        assert allocation.machine_assignment[0] == 0
        with pytest.raises(ValueError):
            allocation.scheduling_order[0] = 9

    @pytest.mark.parametrize("assignments, orders", [
        (np.array([[0, 1]]), np.array([[0, 1, 2]])),
        (np.array([0, 1]), np.array([0, 1])),
        (np.array([[-1, 0]]), np.array([[0, 1]])),
        (np.empty((2, 0), dtype=int), np.empty((2, 0), dtype=int)),
    ])
    def test_invalid_rejected(self, assignments, orders):
        with pytest.raises(ScheduleError):
            ResourceAllocation.from_rows(assignments, orders)


class TestValidation:
    def test_machine_range(self):
        a = make_alloc()
        a.validate_against(3)
        with pytest.raises(ScheduleError):
            a.validate_against(2)

    def test_feasibility_check(self):
        a = ResourceAllocation(np.array([1]), np.array([0]))
        feasible = np.array([[True, False]])
        with pytest.raises(ScheduleError):
            a.validate_against(2, feasible, np.array([0]))
        ok = ResourceAllocation(np.array([0]), np.array([0]))
        ok.validate_against(2, feasible, np.array([0]))

    def test_feasibility_requires_task_types(self):
        a = make_alloc()
        with pytest.raises(ScheduleError):
            a.validate_against(3, np.ones((1, 3), dtype=bool), None)


class TestOrderSemantics:
    def test_is_order_permutation(self):
        assert make_alloc().is_order_permutation()
        dup = ResourceAllocation(np.array([0, 0]), np.array([1, 1]))
        assert not dup.is_order_permutation()

    def test_normalized_order_stable(self):
        dup = ResourceAllocation(np.array([0, 0, 0]), np.array([5, 5, 2]))
        norm = dup.normalized_order()
        # Key 2 -> rank 0; ties on 5 break by task index.
        np.testing.assert_array_equal(norm.scheduling_order, [1, 2, 0])
        assert norm.is_order_permutation()

    def test_machine_queue_order(self):
        a = make_alloc()
        # Machine 0 runs tasks 0 (key 3) and 2 (key 1) -> queue [2, 0].
        np.testing.assert_array_equal(a.machine_queue(0), [2, 0])
        np.testing.assert_array_equal(a.machine_queue(1), [1])
        assert a.machine_queue(5).shape == (0,)

    def test_machine_queue_tie_break_by_index(self):
        a = ResourceAllocation(np.array([0, 0, 0]), np.array([1, 1, 0]))
        np.testing.assert_array_equal(a.machine_queue(0), [2, 0, 1])
