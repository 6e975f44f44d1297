"""Makespan-energy bi-objective evaluation (the paper's predecessor).

The paper builds on Friese et al., *"Analyzing the trade-offs between
minimizing makespan and minimizing energy consumption in a
heterogeneous resource allocation problem"* (INFOCOMP 2012) — the same
NSGA-II machinery with **makespan** instead of utility as the
performance objective, and a bag-of-tasks model ("they do not consider
arrival times or the specific ordering of tasks").

:class:`MakespanEnergyEvaluator` implements that predecessor as a
baseline: it exposes the batch-evaluation interface the NSGA-II engine
consumes, returning ``(energy, -makespan)`` pairs so the engine's
fixed (minimize, maximize) senses minimize makespan without touching
the core.  ``bag_of_tasks=True`` reproduces the predecessor exactly
(all arrivals treated as 0); ``False`` keeps the trace's arrivals.

The A9 benchmark uses it to quantify the paper's motivation: a
makespan-optimal allocation is generally *not* utility-optimal,
because utility decays per task (early small victories matter) while
makespan only counts the last finisher.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ScheduleError
from repro.model.system import SystemModel
from repro.sim.batchkernel import DEFAULT_CACHE_SIZE, BatchQueueKernel
from repro.sim.schedule import ResourceAllocation
from repro.types import FloatArray, IntArray
from repro.workload.trace import Trace

__all__ = ["MakespanEnergyEvaluator"]


class _ZeroUtility:
    """TUF stand-in for makespan mode: utility is identically zero.

    The batch kernel folds a utility value per queue element; makespan
    optimization has none, and an all-zero table keeps every fold (and
    every cached queue state) exact without touching the kernel.
    """

    @staticmethod
    def evaluate(task_types: IntArray, elapsed: FloatArray) -> FloatArray:
        return np.zeros(np.asarray(elapsed).shape)


class MakespanEnergyEvaluator:
    """Drop-in evaluator optimizing (min energy, min makespan).

    Exposes the same attributes/methods the NSGA-II engine uses
    (``system``, ``trace``, ``evaluate_batch``), plus scalar helpers.
    The second objective returned is ``-makespan`` so the engine's
    maximize-second-axis convention minimizes makespan; analysis code
    should negate it back for reporting (:meth:`to_report_points`).
    """

    def __init__(
        self,
        system: SystemModel,
        trace: Trace,
        bag_of_tasks: bool = True,
        check_feasibility: bool = False,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        trace.validate_against(system.num_task_types)
        self.system = system
        self.trace = trace
        self.bag_of_tasks = bag_of_tasks
        self.check_feasibility = check_feasibility
        self.num_tasks = trace.num_tasks
        self.num_machines = system.num_machines
        self._task_types = trace.task_types
        self._arrivals = (
            np.zeros(trace.num_tasks)
            if bag_of_tasks
            else trace.arrival_times
        )
        self._etc_rows = system.etc_task_machine[self._task_types]
        self._eec_rows = system.eec_task_machine[self._task_types]
        self._feasible_rows = system.feasible_task_machine[self._task_types]
        self._row_index = np.arange(self.num_tasks)
        # Duck-typed kernel bindings (it reads these attributes):
        # makespan is the per-row maximum of the cached final-finish
        # values, and energy comes from the same queue folds.
        self._etc_flat = np.ascontiguousarray(self._etc_rows).reshape(-1)
        self._eec_flat = np.ascontiguousarray(self._eec_rows).reshape(-1)
        self._tuf_table = _ZeroUtility()
        self._queue_groups = np.arange(self.num_machines, dtype=np.int64)
        self._num_queues = self.num_machines
        self._batch_kernel = BatchQueueKernel(self, cache_size)

    # -- engine interface ---------------------------------------------------

    def evaluate_batch(
        self, assignments: IntArray, orders: IntArray
    ) -> tuple[FloatArray, FloatArray]:
        """``(energy, -makespan)`` for each chromosome row."""
        assignments = np.asarray(assignments, dtype=np.int64)
        orders = np.asarray(orders, dtype=np.int64)
        if assignments.ndim != 2 or assignments.shape != orders.shape:
            raise ScheduleError(
                f"batch arrays must be equal-shape 2-D; got "
                f"{assignments.shape} and {orders.shape}"
            )
        N, T = assignments.shape
        if T != self.num_tasks:
            raise ScheduleError(
                f"batch covers {T} tasks; trace has {self.num_tasks}"
            )
        if N == 0:
            return (np.empty(0), np.empty(0))
        if self.check_feasibility:
            ok = self._feasible_rows[
                np.broadcast_to(self._row_index, (N, T)), assignments
            ]
            if not np.all(ok):
                raise ScheduleError("batch contains infeasible placements")
        energies, _, finish = self._batch_kernel.evaluate_population_with_finish(
            assignments, orders
        )
        return energies, -finish

    # -- scalar helpers -------------------------------------------------------

    def makespan(self, allocation: ResourceAllocation) -> float:
        """Makespan of one allocation (positive seconds)."""
        _, neg = self.evaluate_batch(
            allocation.machine_assignment[None, :],
            allocation.scheduling_order[None, :],
        )
        return float(-neg[0])

    def objectives(self, allocation: ResourceAllocation) -> tuple[float, float]:
        """``(energy, makespan)`` of one allocation (report units)."""
        e, neg = self.evaluate_batch(
            allocation.machine_assignment[None, :],
            allocation.scheduling_order[None, :],
        )
        return float(e[0]), float(-neg[0])

    @staticmethod
    def to_report_points(front_points: FloatArray) -> FloatArray:
        """Convert engine-space ``(energy, -makespan)`` points to
        ``(energy, makespan)`` for reporting."""
        pts = np.asarray(front_points, dtype=np.float64).copy()
        pts[:, 1] = -pts[:, 1]
        return pts
