"""Schedule evaluation — the simulator hot path.

Semantics (paper Section IV): tasks queue on their assigned machine in
global-scheduling-order (ties by task index); a task's start time is
``max(machine available, arrival)``; its completion adds its ETC; its
utility is ``Υ_τ(completion − arrival)``; its energy is
``EEC(τ, Ω(m)) = ETC·EPC`` regardless of queueing.

:class:`ScheduleEvaluator` binds one (system, trace) pair.  Populations
go through the batch kernel (:class:`~repro.sim.batchkernel.\
BatchQueueKernel`), which reuses per-machine queue states across
generations; single allocations go through the same queue fold
(:func:`~repro.sim.batchkernel.fold_queues`) directly, so
:meth:`~ScheduleEvaluator.evaluate` and
:meth:`~ScheduleEvaluator.evaluate_batch` agree bit for bit.  There is
no Python-level loop over tasks anywhere on this path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.errors import ScheduleError
from repro.model.system import SystemModel
from repro.obs.context import NULL_CONTEXT, RunContext
from repro.sim.batchkernel import (
    DEFAULT_CACHE_SIZE,
    BatchQueueKernel,
    fold_queues,
    queue_order,
    row_totals,
)
from repro.sim.schedule import ResourceAllocation
from repro.types import BoolArray, FloatArray, IntArray
from repro.utility.vectorized import TUFTable
from repro.workload.trace import Trace

__all__ = [
    "EvaluationResult",
    "EvaluatorArrays",
    "ScheduleEvaluator",
]


@dataclass(frozen=True)
class EvaluationResult:
    """Full outcome of simulating one resource allocation.

    Attributes
    ----------
    energy:
        Total energy consumed ``E`` (joules) — Eq. (3).
    utility:
        Total utility earned ``U`` — Eq. (1).
    start_times, completion_times:
        ``(T,)`` arrays (seconds).
    task_utilities:
        ``(T,)`` per-task utility earned.
    task_energies:
        ``(T,)`` per-task energy (joules).
    """

    energy: float
    utility: float
    start_times: FloatArray
    completion_times: FloatArray
    task_utilities: FloatArray
    task_energies: FloatArray

    @property
    def makespan(self) -> float:
        """Latest completion time across all tasks."""
        return float(self.completion_times.max())

    @property
    def objectives(self) -> tuple[float, float]:
        """``(energy, utility)`` pair for the optimizer."""
        return (self.energy, self.utility)


@dataclass(frozen=True)
class EvaluatorArrays:
    """The evaluator's precomputed per-task gathers, supplied externally.

    Normally :class:`ScheduleEvaluator` derives these from the system
    and trace at construction — a fancy-indexing copy of O(tasks ×
    machines) per array.  The shared-memory parallel engine
    (:mod:`repro.parallel`) computes them once per experiment, publishes
    them into a shared segment, and hands every worker zero-copy views
    wrapped in this container, so evaluator construction in a pool
    worker costs no array materialization at all.  Arrays must match
    what the evaluator would have computed itself — bit for bit — which
    :func:`repro.parallel.descriptors.dataset_arrays` guarantees by
    running the same expressions.

    Attributes
    ----------
    etc_rows, eec_rows:
        ``(T, M)`` per-task ETC / EEC rows (task *i* × machine *m*).
    feasible_rows:
        ``(T, M)`` boolean feasibility per task and machine.
    tuf_table:
        The stacked :class:`~repro.utility.vectorized.TUFTable`.
    """

    etc_rows: FloatArray
    eec_rows: FloatArray
    feasible_rows: BoolArray
    tuf_table: TUFTable


class ScheduleEvaluator:
    """Evaluates allocations for one (system, trace) pair.

    Precomputes the per-task ETC/EEC gathers and the stacked TUF table
    once; every evaluation afterwards is pure array work.

    Parameters
    ----------
    system:
        The :class:`~repro.model.system.SystemModel`; its task types
        must carry utility functions.
    trace:
        The workload :class:`~repro.workload.trace.Trace`.
    check_feasibility:
        Validate every evaluated allocation against the feasibility
        mask (cheap; disable only inside the GA, whose operators
        preserve feasibility by construction).
    queue_groups:
        Optional ``(num_machines,)`` int array mapping each machine
        index to a queue id.  Machines sharing a queue id contend for
        the same sequential queue while keeping their own ETC/EPC —
        this is how the DVFS extension models one physical processor
        exposed at several operating points.  Default: identity (every
        machine is its own queue).
    fault_hook:
        Optional zero-argument callable invoked at the top of every
        :meth:`evaluate` / :meth:`evaluate_batch` call.  Exists for the
        deterministic fault-injection harness
        (:mod:`repro.testing.faults`): tests install a hook that
        crashes or hangs at a chosen evaluation, exercising the
        checkpoint/resume and retry recovery paths.  ``None`` (the
        default) costs one predicate per call.
    cache_size:
        Upper bound on the batch kernel's cached queue states (see
        :mod:`repro.sim.batchkernel`); ``0`` disables reuse.  Cached
        and fresh evaluations are bit-identical (every queue fold is
        batch-composition independent), so this only changes speed.
    obs:
        Optional :class:`~repro.obs.context.RunContext`.  When enabled,
        each batch evaluation records an ``evaluator.batch`` span and
        feeds the chromosome / queue-hit / queue-miss counters; when
        disabled (default), evaluation pays exactly one
        predicate — the kernel itself is untouched either way, so
        objectives are bit-identical with observability on or off.
    precomputed:
        Optional :class:`EvaluatorArrays` carrying the per-task
        ETC/EEC/feasibility gathers and the TUF table, e.g. zero-copy
        views of a shared-memory segment (see :mod:`repro.parallel`).
        When given, construction performs no array materialization and
        the system's task types need not carry utility functions (the
        table is taken as supplied).  Results are bit-identical to a
        self-computed evaluator because the arrays are the same values.
    """

    def __init__(
        self,
        system: SystemModel,
        trace: Trace,
        check_feasibility: bool = True,
        queue_groups: Optional[IntArray] = None,
        fault_hook: Optional[Callable[[], None]] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        obs: Optional["RunContext"] = None,
        precomputed: Optional[EvaluatorArrays] = None,
    ) -> None:
        trace.validate_against(system.num_task_types)
        if cache_size < 0:
            raise ScheduleError(f"cache_size must be >= 0, got {cache_size}")
        self.system = system
        self.trace = trace
        self.check_feasibility = check_feasibility
        self.fault_hook = fault_hook
        if obs is None:
            obs = NULL_CONTEXT
        self.obs = obs
        self.num_tasks = trace.num_tasks
        self.num_machines = system.num_machines

        self._task_types = trace.task_types
        self._arrivals = trace.arrival_times
        if precomputed is not None:
            expected = (self.num_tasks, self.num_machines)
            if precomputed.etc_rows.shape != expected:
                raise ScheduleError(
                    f"precomputed etc_rows shape {precomputed.etc_rows.shape} "
                    f"does not match (tasks, machines) = {expected}"
                )
            self._etc_rows = precomputed.etc_rows
            self._eec_rows = precomputed.eec_rows
            self._feasible_rows = precomputed.feasible_rows
            self._tuf_table = precomputed.tuf_table
        else:
            # Per-task rows of the machine-instance-expanded matrices.
            self._etc_rows = system.etc_task_machine[self._task_types]
            self._eec_rows = system.eec_task_machine[self._task_types]
            self._feasible_rows = system.feasible_task_machine[self._task_types]
            self._tuf_table = TUFTable.from_system(system)
        # Flat (task row × machine) views for the kernel's gathers (a
        # ravel of a C-contiguous array — the shared-view case — is
        # zero-copy).
        self._etc_flat = np.ascontiguousarray(self._etc_rows).reshape(-1)
        self._eec_flat = np.ascontiguousarray(self._eec_rows).reshape(-1)
        self._row_index = np.arange(self.num_tasks)
        if queue_groups is None:
            self._queue_groups = np.arange(self.num_machines, dtype=np.int64)
            self._num_queues = self.num_machines
        else:
            qg = np.asarray(queue_groups, dtype=np.int64)
            if qg.shape != (self.num_machines,):
                raise ScheduleError(
                    f"queue_groups must have shape ({self.num_machines},); "
                    f"got {qg.shape}"
                )
            if np.any(qg < 0):
                raise ScheduleError("queue ids must be >= 0")
            self._queue_groups = qg.copy()
            self._num_queues = int(qg.max()) + 1
        self._batch_kernel = BatchQueueKernel(self, cache_size)

    @property
    def tuf_table(self) -> TUFTable:
        """The stacked TUF table (shared with heuristics)."""
        return self._tuf_table

    # -- single allocation -------------------------------------------------

    def evaluate(self, allocation: ResourceAllocation) -> EvaluationResult:
        """Simulate one allocation and return the full result."""
        if self.fault_hook is not None:
            self.fault_hook()
        if allocation.num_tasks != self.num_tasks:
            raise ScheduleError(
                f"allocation covers {allocation.num_tasks} tasks; trace has "
                f"{self.num_tasks}"
            )
        assignment = allocation.machine_assignment
        if int(assignment.max()) >= self.num_machines:
            raise ScheduleError(
                f"allocation references machine {int(assignment.max())}; system "
                f"has {self.num_machines}"
            )
        if self.check_feasibility:
            ok = self._feasible_rows[self._row_index, assignment]
            if not np.all(ok):
                bad = int(np.flatnonzero(~ok)[0])
                raise ScheduleError(
                    f"task {bad} assigned to machine {int(assignment[bad])}, "
                    "which cannot execute its task type"
                )
        order = allocation.scheduling_order
        seg = self._queue_groups[assignment]
        perm = queue_order(seg, order)
        lin = perm * self.num_machines + assignment[perm]
        folds = fold_queues(
            seg[perm], self._etc_flat[lin], self._arrivals[perm],
            self._task_types[perm], self._eec_flat[lin], self._tuf_table,
        )
        per_queue = np.zeros((2, 1, self._num_queues))
        per_queue[:, 0, folds.ids] = folds.ue
        (utility,), (energy,) = row_totals(per_queue)
        finish = np.empty(self.num_tasks)
        finish[perm] = folds.finish
        utilities = np.empty(self.num_tasks)
        utilities[perm] = folds.utility
        return EvaluationResult(
            energy=float(energy),
            utility=float(utility),
            start_times=finish - self._etc_rows[self._row_index, assignment],
            completion_times=finish,
            task_utilities=utilities,
            task_energies=self._eec_rows[self._row_index, assignment],
        )

    def objectives(self, allocation: ResourceAllocation) -> tuple[float, float]:
        """``(energy, utility)`` of one allocation."""
        return self.evaluate(allocation).objectives

    @property
    def cache_stats(self) -> dict:
        """The batch kernel's queue-state counters, including the
        element-level ``reuse_rate`` (all zero when caching is off)."""
        return self._batch_kernel.stats

    def clear_cache(self) -> None:
        """Drop all cached queue states."""
        self._batch_kernel.clear()

    # -- population batch ----------------------------------------------------

    def evaluate_batch(
        self, assignments: IntArray, orders: IntArray
    ) -> tuple[FloatArray, FloatArray]:
        """Objectives for a whole population in one vectorized pass.

        Parameters
        ----------
        assignments, orders:
            ``(N, T)`` arrays: one chromosome per row.

        Returns
        -------
        ``(energies, utilities)`` — each ``(N,)`` float arrays.

        Rows go through the batch kernel, which answers every machine
        queue it has seen before from its queue-state table and folds
        only the rest — bit-identical either way, because each queue's
        folds do not depend on the rest of the batch.
        """
        obs = self.obs
        if not obs.enabled:
            return self._evaluate_batch_impl(assignments, orders)
        table = self._batch_kernel.queue_table
        evict0 = table.evictions
        t0 = time.perf_counter()
        result = self._evaluate_batch_impl(assignments, orders)
        seconds = time.perf_counter() - t0
        rows = int(result[0].shape[0])
        metrics = obs.metrics
        # Reuse is counted per machine queue, not per chromosome row.
        batch = self._batch_kernel.last_batch
        hits = int(batch.get("queue_hits", 0))
        misses = int(batch.get("queue_misses", 0))
        reuse_rate = float(batch.get("reuse_rate", 0.0))
        obs.record_span(
            "evaluator.batch", seconds, rows=rows, cache_hits=hits,
            cache_misses=misses, reuse_rate=reuse_rate,
        )
        metrics.gauge(
            "evaluator_reuse_rate",
            help="fraction of queue elements answered from cached "
            "queue state in the latest batch",
        ).set(reuse_rate)
        metrics.counter(
            "evaluator_queue_states_reused_total",
            help="queue elements covered by cached queue state",
        ).inc(int(batch.get("elements_reused", 0)))
        metrics.counter(
            "evaluator_chromosomes_total",
            help="chromosome rows evaluated",
        ).inc(rows)
        metrics.counter(
            "evaluator_cache_hits_total",
            help="machine queues answered from cached queue state",
        ).inc(hits)
        metrics.counter(
            "evaluator_cache_misses_total",
            help="machine queues folded by the kernel",
        ).inc(misses)
        if table.evictions != evict0:
            metrics.counter(
                "evaluator_cache_evictions_total",
                help="capacity clears of the queue-state table",
            ).inc(table.evictions - evict0)
        metrics.histogram(
            "evaluator_batch_seconds",
            help="wall-clock per evaluate_batch call",
            unit="seconds",
        ).observe(seconds)
        return result

    def _evaluate_batch_impl(
        self, assignments: IntArray, orders: IntArray
    ) -> tuple[FloatArray, FloatArray]:
        """The uninstrumented batch path (see :meth:`evaluate_batch`)."""
        if self.fault_hook is not None:
            self.fault_hook()
        assignments = np.asarray(assignments, dtype=np.int64)
        orders = np.asarray(orders, dtype=np.int64)
        if assignments.ndim != 2 or assignments.shape != orders.shape:
            raise ScheduleError(
                f"batch arrays must be equal-shape 2-D; got {assignments.shape} "
                f"and {orders.shape}"
            )
        N, T = assignments.shape
        if T != self.num_tasks:
            raise ScheduleError(
                f"batch covers {T} tasks per chromosome; trace has {self.num_tasks}"
            )
        if N == 0:
            return (np.empty(0), np.empty(0))
        if int(assignments.max()) >= self.num_machines or int(assignments.min()) < 0:
            raise ScheduleError("batch references machine indices out of range")
        if self.check_feasibility:
            ok = self._feasible_rows[
                np.broadcast_to(self._row_index, (N, T)), assignments
            ]
            if not np.all(ok):
                row, col = np.argwhere(~ok)[0]
                raise ScheduleError(
                    f"chromosome {int(row)}: task {int(col)} assigned to an "
                    "infeasible machine"
                )
        return self._batch_kernel.evaluate_population(assignments, orders)
