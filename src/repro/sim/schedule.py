"""The :class:`ResourceAllocation` — a complete mapping of tasks to machines.

The paper (Section IV-D): each *gene* holds the machine a task executes
on, the task's arrival time, and its **global scheduling order** — an
integer key controlling execution order on the machines, *independent*
of arrival times (a machine sits idle if its next task has not yet
arrived).  A *chromosome* is the full vector of genes; this class is
that chromosome's phenotype, decoupled from the GA machinery so greedy
heuristics and the simulator share it.

The scheduling order is an integer *priority key*: lower runs earlier.
After the paper's crossover (which swaps order values between two
chromosomes) keys may repeat; ties are broken by task index (stable),
as documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ScheduleError
from repro.types import IntArray

__all__ = ["ResourceAllocation"]


def _frozen_genes(
    assignment: IntArray, order: IntArray, ndim: int
) -> tuple[IntArray, IntArray]:
    """Validated read-only int64 copies of *ndim*-D gene arrays (the
    last axis runs over tasks)."""
    assignment = np.array(assignment, dtype=np.int64)
    order = np.array(order, dtype=np.int64)
    if assignment.ndim != ndim or order.ndim != ndim:
        raise ScheduleError(f"allocation genes must be {ndim}-D")
    if assignment.shape != order.shape:
        raise ScheduleError(
            f"assignment shape {assignment.shape} does not match "
            f"order shape {order.shape}"
        )
    if assignment.shape[-1] == 0:
        raise ScheduleError("allocation must cover at least one task")
    if np.any(assignment < 0):
        raise ScheduleError("machine indices must be >= 0")
    assignment.setflags(write=False)
    order.setflags(write=False)
    return assignment, order


@dataclass(frozen=True)
class ResourceAllocation:
    """Per-task machine assignment and global scheduling order.

    Attributes
    ----------
    machine_assignment:
        ``(T,)`` int array; ``machine_assignment[i]`` is the machine
        *instance* index executing task *i*.
    scheduling_order:
        ``(T,)`` int array of priority keys; lower keys execute earlier
        on their machine (ties broken by task index).
    """

    machine_assignment: IntArray
    scheduling_order: IntArray

    def __post_init__(self) -> None:
        assignment, order = _frozen_genes(
            self.machine_assignment, self.scheduling_order, ndim=1
        )
        object.__setattr__(self, "machine_assignment", assignment)
        object.__setattr__(self, "scheduling_order", order)

    @classmethod
    def from_rows(
        cls, assignments: IntArray, orders: IntArray
    ) -> list["ResourceAllocation"]:
        """One allocation per row of ``(S, T)`` gene matrices.

        Validates the matrices once instead of once per row; each
        allocation holds read-only row views of one private copy.
        """
        allocations = []
        for assignment, order in zip(
            *_frozen_genes(assignments, orders, ndim=2)
        ):
            allocation = object.__new__(cls)
            object.__setattr__(allocation, "machine_assignment", assignment)
            object.__setattr__(allocation, "scheduling_order", order)
            allocations.append(allocation)
        return allocations

    @property
    def num_tasks(self) -> int:
        """Number of tasks the allocation covers."""
        return int(self.machine_assignment.shape[0])

    def validate_against(self, num_machines: int, feasible_task_machine=None,
                         task_types: Optional[IntArray] = None) -> None:
        """Raise :class:`ScheduleError` on out-of-range or infeasible placement.

        Parameters
        ----------
        num_machines:
            Machine-instance count of the system.
        feasible_task_machine:
            Optional ``(num_task_types, num_machines)`` bool mask; when
            given together with *task_types*, placements are checked
            against it.
        task_types:
            ``(T,)`` task-type indices of the trace.
        """
        if int(self.machine_assignment.max()) >= num_machines:
            raise ScheduleError(
                f"allocation references machine {int(self.machine_assignment.max())} "
                f"but the system has only {num_machines} machines"
            )
        if feasible_task_machine is not None:
            if task_types is None:
                raise ScheduleError(
                    "task_types required to check placement feasibility"
                )
            ok = feasible_task_machine[task_types, self.machine_assignment]
            if not np.all(ok):
                bad = int(np.flatnonzero(~ok)[0])
                raise ScheduleError(
                    f"task {bad} (type {int(task_types[bad])}) is assigned to "
                    f"machine {int(self.machine_assignment[bad])}, which cannot "
                    "execute that task type"
                )

    def is_order_permutation(self) -> bool:
        """Whether the scheduling order is a permutation of ``0..T-1``."""
        return bool(
            np.array_equal(np.sort(self.scheduling_order), np.arange(self.num_tasks))
        )

    def normalized_order(self) -> "ResourceAllocation":
        """Copy with the order keys renormalized to a permutation.

        Stable: relative order (ties broken by task index) is preserved.
        """
        ranks = np.empty(self.num_tasks, dtype=np.int64)
        # argsort of (order, index) — np.argsort is stable for kind='stable'.
        perm = np.argsort(self.scheduling_order, kind="stable")
        ranks[perm] = np.arange(self.num_tasks)
        return ResourceAllocation(
            machine_assignment=self.machine_assignment,
            scheduling_order=ranks,
        )

    def machine_queue(self, machine: int) -> IntArray:
        """Task indices queued on *machine*, in execution order."""
        tasks = np.flatnonzero(self.machine_assignment == machine)
        if tasks.size == 0:
            return tasks
        keys = self.scheduling_order[tasks]
        return tasks[np.argsort(keys, kind="stable")]
