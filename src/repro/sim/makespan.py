"""Makespan-energy bi-objective evaluation (the paper's predecessor).

The paper builds on Friese et al., *"Analyzing the trade-offs between
minimizing makespan and minimizing energy consumption in a
heterogeneous resource allocation problem"* (INFOCOMP 2012) — the same
NSGA-II machinery with **makespan** instead of utility as the
performance objective, and a bag-of-tasks model ("they do not consider
arrival times or the specific ordering of tasks").

:class:`MakespanEnergyEvaluator` implements that predecessor as a
baseline: a :class:`~repro.sim.evaluator.ScheduleEvaluator` whose
batches return ``(energy, -makespan)`` pairs, so the engine's fixed
(minimize, maximize) senses minimize makespan without touching the
core.  ``bag_of_tasks=True`` reproduces the predecessor exactly
(all arrivals treated as 0); ``False`` keeps the trace's arrivals.

The A9 benchmark uses it to quantify the paper's motivation: a
makespan-optimal allocation is generally *not* utility-optimal,
because utility decays per task (early small victories matter) while
makespan only counts the last finisher.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.model.system import SystemModel
from repro.sim.batchkernel import DEFAULT_CACHE_SIZE, RowBase
from repro.sim.evaluator import EvaluatorArrays, ScheduleEvaluator
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
    def evaluate(
        task_types: IntArray, elapsed: FloatArray, scratch=None
    ) -> FloatArray:
        """All-zero utilities, in *scratch* when given (as the TUF
        table's are)."""
        shape = np.shape(elapsed)
        if scratch is None:
            return np.zeros(shape)
        out = scratch.get("tuf_value", int(np.prod(shape)), np.float64)
        out.fill(0.0)
        return out.reshape(shape)


class MakespanEnergyEvaluator(ScheduleEvaluator):
    """Evaluator optimizing (min energy, min makespan).

    A :class:`~repro.sim.evaluator.ScheduleEvaluator` over an all-zero
    utility table (and, in bag-of-tasks mode, a trace whose arrivals
    are all 0) whose batches return ``(energy, -makespan)``: the
    engine's maximize-second-axis convention then minimizes makespan;
    analysis code should negate it back for reporting
    (:meth:`to_report_points`).
    """

    def __init__(
        self,
        system: SystemModel,
        trace: Trace,
        bag_of_tasks: bool = True,
        check_feasibility: bool = False,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        self.bag_of_tasks = bag_of_tasks
        if bag_of_tasks:
            trace = Trace(
                task_types=trace.task_types,
                arrival_times=np.zeros(trace.num_tasks),
                window=trace.window,
            )
        super().__init__(
            system, trace, check_feasibility=check_feasibility,
            cache_size=cache_size,
            precomputed=EvaluatorArrays.gather(
                system, trace.task_types, _ZeroUtility()
            ),
        )

    # -- engine interface ---------------------------------------------------

    def _evaluate_batch_impl(
        self, assignments: IntArray, orders: IntArray,
        base: Optional[RowBase] = None,
        fingerprints: Optional[np.ndarray] = None,
    ) -> tuple[FloatArray, FloatArray]:
        """``(energy, -makespan)`` for each chromosome row: makespan is
        the per-row maximum of the queue folds' final finishes."""
        assignments, orders = self._checked_batch(assignments, orders, base)
        if not len(assignments):
            return (np.empty(0), np.empty(0))
        energies, _, finish = self._batch_kernel.evaluate_population(
            assignments, orders, want_finish=True, base=base,
            fingerprints=fingerprints,
        )
        return energies, -finish

    # -- scalar helpers -------------------------------------------------------

    def makespan(self, allocation: ResourceAllocation) -> float:
        """Makespan of one allocation (positive seconds)."""
        return self.objectives(allocation)[1]

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
