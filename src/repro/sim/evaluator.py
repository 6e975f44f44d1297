"""Schedule evaluation — the simulator hot path.

Semantics (paper Section IV): tasks queue on their assigned machine in
global-scheduling-order (ties by task index); a task's start time is
``max(machine available, arrival)``; its completion adds its ETC; its
utility is ``Υ_τ(completion − arrival)``; its energy is
``EEC(τ, Ω(m)) = ETC·EPC`` regardless of queueing.

:class:`ScheduleEvaluator` is the one class that binds a (system,
trace) pair to the batch kernel (:class:`~repro.sim.batchkernel.\
BatchQueueKernel`) and validates what it evaluates.  Populations go
through the kernel, which reuses per-machine queue states across
generations; single allocations go through the same queue fold
(:func:`~repro.sim.batchkernel.fold_queues`) without the cache, so
:meth:`~ScheduleEvaluator.evaluate` and
:meth:`~ScheduleEvaluator.evaluate_batch` agree bit for bit.  An
optional committed prefix (:class:`~repro.sim.batchkernel.QueuePrefix`)
seeds every queue; the online service's window evaluator and the
makespan baseline are thin subclasses.  There is no Python-level loop
over tasks anywhere on this path.
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
    QueuePrefix,
    RowBase,
)
from repro.sim.schedule import ResourceAllocation
from repro.types import BoolArray, FloatArray, IntArray
from repro.utility.vectorized import TUFTable
from repro.workload.trace import Trace

__all__ = [
    "EvaluationResult",
    "EvaluatorArrays",
    "ScheduleEvaluator",
    "stack_fingerprints",
]

#: Gene dtypes evaluated as they come, each with the unsigned dtype of
#: its width (the one-pass range check views the genes through it).
_UNSIGNED = {
    np.dtype(np.int32): np.dtype(np.uint32),
    np.dtype(np.int64): np.dtype(np.uint64),
}


def _gene_array(values) -> IntArray:
    """*values* as an int32 or int64 array, converting nothing else."""
    arr = np.asarray(values)
    if arr.dtype in _UNSIGNED:
        return arr
    return np.asarray(arr, dtype=np.int64)


def stack_fingerprints(
    *blocks: tuple[Optional[np.ndarray], int]
) -> Optional[np.ndarray]:
    """Row fingerprints of consecutive row blocks, stacked.

    Each block is ``(fingerprints, rows)``, its fingerprints as
    :meth:`ScheduleEvaluator.evaluate_rows` returned them or ``None``;
    a block without any gets all-zero rows, which the batch kernel
    reads as rows without fingerprints.  ``None`` when no block has any.
    """
    parts = [fp for fp, _ in blocks if fp is not None]
    if not parts:
        return None
    width = parts[0].shape[1]
    return np.concatenate([
        np.zeros((rows, width), dtype=np.uint64) if fp is None else fp
        for fp, rows in blocks
    ])


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
    """The evaluator's per-task gathers and TUF table.

    :class:`ScheduleEvaluator` builds them with :meth:`gather` unless
    they are supplied.  The shared-memory parallel engine
    (:mod:`repro.parallel`) gathers them once per experiment, publishes
    them into a shared segment, and hands every worker zero-copy views
    wrapped in this container, so evaluator construction in a pool
    worker costs no array materialization at all.  Supplied arrays must
    match what :meth:`gather` computes — bit for bit — which
    :func:`repro.parallel.descriptors.dataset_arrays` guarantees by
    calling it.  The table may differ: the online service shares one
    table across windows, and the makespan baseline scores with an
    all-zero one.

    Attributes
    ----------
    etc_rows, eec_rows:
        ``(T, M)`` per-task ETC / EEC rows (task *i* × machine *m*).
    feasible_rows:
        ``(T, M)`` boolean feasibility per task and machine.
    tuf_table:
        The stacked :class:`~repro.utility.vectorized.TUFTable`, or any
        object with its ``evaluate(task_types, elapsed)``.
    """

    etc_rows: FloatArray
    eec_rows: FloatArray
    feasible_rows: BoolArray
    tuf_table: TUFTable

    @classmethod
    def gather(
        cls,
        system: SystemModel,
        task_types: IntArray,
        tuf_table: Optional[TUFTable] = None,
    ) -> "EvaluatorArrays":
        """The rows of the machine-instance-expanded matrices for
        *task_types*; *tuf_table* defaults to one built from *system*."""
        return cls(
            etc_rows=system.etc_task_machine[task_types],
            eec_rows=system.eec_task_machine[task_types],
            feasible_rows=system.feasible_task_machine[task_types],
            tuf_table=(TUFTable.from_system(system) if tuf_table is None
                       else tuf_table),
        )


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
    prefix:
        Optional :class:`~repro.sim.batchkernel.QueuePrefix`: every
        machine queue continues from its fold state, as if the prefix's
        tasks sorted first in that queue, and every total carries its
        offsets.  The online service scores a window's free tasks this
        way on top of the committed ones.
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
        prefix: Optional[QueuePrefix] = None,
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
        if precomputed is None:
            precomputed = EvaluatorArrays.gather(system, self._task_types)
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
        if prefix is not None and any(
            part.shape != (self._num_queues,) for part in prefix.seed
        ):
            raise ScheduleError(
                f"prefix seed must hold {self._num_queues} entries per fold"
            )
        self._batch_kernel = BatchQueueKernel(
            self._etc_flat, self._eec_flat, self._arrivals, self._task_types,
            self._tuf_table, self._queue_groups, cache_size, prefix,
        )

    @property
    def tuf_table(self) -> TUFTable:
        """The stacked TUF table (shared with heuristics)."""
        return self._tuf_table

    # -- single allocation -------------------------------------------------

    def evaluate(self, allocation: ResourceAllocation) -> EvaluationResult:
        """Simulate one allocation and return the full result."""
        (assignment,), (order,) = self._checked_batch(
            allocation.machine_assignment[None, :],
            allocation.scheduling_order[None, :],
        )
        perm, folds, energy, utility = self._batch_kernel.fold_row(
            assignment, order
        )
        finish = np.empty(self.num_tasks)
        finish[perm] = folds.finish
        utilities = np.empty(self.num_tasks)
        utilities[perm] = folds.utility
        return EvaluationResult(
            energy=energy,
            utility=utility,
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
        element-level ``reuse_rate``.  With caching off, hits are 0 and
        reuse counts only the committed-prefix elements."""
        return self._batch_kernel.stats

    def clear_cache(self) -> None:
        """Drop all cached queue states."""
        self._batch_kernel.clear()

    # -- population batch ----------------------------------------------------

    def evaluate_batch(
        self, assignments: IntArray, orders: IntArray,
        base: Optional[RowBase] = None,
        fingerprints: Optional[np.ndarray] = None,
    ) -> tuple[FloatArray, FloatArray]:
        """Objectives for a whole population in one vectorized pass.

        Parameters
        ----------
        assignments, orders:
            ``(N, T)`` arrays: one chromosome per row.
        base:
            Optional :class:`~repro.sim.batchkernel.RowBase`: for each
            row, an already evaluated row it was derived from (with its
            fingerprints).  The kernel then hashes only the genes in
            which a row differs from its base.  A hint: results are the
            same without it, provided the base's fingerprints are the
            ones an evaluator of this system, trace and queue map wrote
            for the base's genes (zero rows stand for none).
        fingerprints:
            Optional ``(N, 2·queues)`` uint64 array that receives each
            row's queue keys, then its queue lengths, to pass back as a
            later batch's *base*.  Left untouched with the cache off.
            :meth:`evaluate_rows` allocates and passes both.

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
            return self._evaluate_batch_impl(assignments, orders, base,
                                             fingerprints)
        evict0 = self.cache_stats["evictions"]
        t0 = time.perf_counter()
        result = self._evaluate_batch_impl(assignments, orders, base,
                                           fingerprints)
        seconds = time.perf_counter() - t0
        rows = int(result[0].shape[0])
        metrics = obs.metrics
        # Reuse is counted per machine queue, not per chromosome row.
        batch = self._batch_kernel.last_batch
        hits = int(batch.get("queue_hits", 0))
        misses = int(batch.get("queue_misses", 0))
        reuse_rate = float(batch.get("reuse_rate", 0.0))
        hashed = int(batch.get("elements_hashed", 0))
        obs.record_span(
            "evaluator.batch", seconds, rows=rows, cache_hits=hits,
            cache_misses=misses, reuse_rate=reuse_rate,
            elements_hashed=hashed,
        )
        metrics.gauge(
            "evaluator_reuse_rate",
            help="fraction of queue elements answered from cached "
            "queue state or a committed prefix in the latest batch",
        ).set(reuse_rate)
        metrics.counter(
            "evaluator_queue_states_reused_total",
            help="queue elements covered by cached queue state or a "
            "committed prefix",
        ).inc(int(batch.get("elements_reused", 0)))
        metrics.counter(
            "evaluator_elements_hashed_total",
            help="queue elements whose mix went into or out of a queue "
            "fingerprint (a row edited from its base hashes only the "
            "genes that changed, twice each)",
        ).inc(hashed)
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
        evictions = self.cache_stats["evictions"] - evict0
        if evictions:
            metrics.counter(
                "evaluator_cache_evictions_total",
                help="capacity clears of the queue-state table",
            ).inc(evictions)
        metrics.histogram(
            "evaluator_batch_seconds",
            help="wall-clock per evaluate_batch call",
            unit="seconds",
        ).observe(seconds)
        return result

    def evaluate_rows(
        self, assignments: IntArray, orders: IntArray,
        parents=None, bases: Optional[IntArray] = None,
    ) -> tuple[FloatArray, FloatArray, Optional[np.ndarray]]:
        """:meth:`evaluate_batch`, keeping each row's queue fingerprints.

        Returns ``(energies, utilities, fingerprints)``.  The
        fingerprints are an opaque per-row array that a caller moves
        with the rows' genes and hands back as a later call's
        *parents*; ``None`` where the kernel would never use them: with
        the cache off, and for batches too small to be hashed as edits
        (:meth:`~repro.sim.batchkernel.BatchQueueKernel.edits`), which
        then take the plain :meth:`evaluate_batch` path.

        *parents*, when given with *bases*, is anything with
        ``assignments``, ``orders`` and ``fingerprints`` attributes (a
        :class:`~repro.core.population.Population` this evaluator
        evaluated), and ``bases[i]`` is the row of *parents* that row
        *i* was copied from before variation edited it.  Rows are then
        hashed as edits of their base rows; objectives are the same
        without them.
        """
        rows = np.shape(assignments)[0]
        if not self._batch_kernel.edits(rows):
            return (*self.evaluate_batch(assignments, orders), None)
        fingerprints = np.zeros((rows, 2 * self._num_queues),
                                dtype=np.uint64)
        base = None
        if (parents is not None and bases is not None
                and parents.fingerprints is not None):
            base = RowBase(parents.assignments, parents.orders,
                           parents.fingerprints, bases)
        energies, utilities = self.evaluate_batch(
            assignments, orders, base=base, fingerprints=fingerprints
        )
        return energies, utilities, fingerprints

    def _evaluate_batch_impl(
        self, assignments: IntArray, orders: IntArray,
        base: Optional[RowBase] = None,
        fingerprints: Optional[np.ndarray] = None,
    ) -> tuple[FloatArray, FloatArray]:
        """The uninstrumented batch path (see :meth:`evaluate_batch`)."""
        assignments, orders = self._checked_batch(assignments, orders, base)
        if not len(assignments):
            return (np.empty(0), np.empty(0))
        return self._batch_kernel.evaluate_population(
            assignments, orders, base=base, fingerprints=fingerprints,
        )[:2]

    def _checked_batch(
        self, assignments: IntArray, orders: IntArray,
        base: Optional[RowBase] = None,
    ) -> tuple[IntArray, IntArray]:
        """The batch as validated ``(N, T)`` int32 or int64 arrays.

        int32 and int64 genes pass through without a widening copy;
        any other dtype is converted to int64.  A *base* must name one
        row of its genes per batch row, and its genes must match the
        batch's shape and dtypes.
        """
        if self.fault_hook is not None:
            self.fault_hook()
        assignments = _gene_array(assignments)
        orders = _gene_array(orders)
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
            return assignments, orders
        if base is not None:
            self._check_base(base, assignments, orders)
        # One pass: negative indices wrap to huge unsigned values.
        unsigned = _UNSIGNED[assignments.dtype]
        if int(assignments.view(unsigned).max()) >= self.num_machines:
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
        return assignments, orders

    def _check_base(
        self, base: RowBase, assignments: IntArray, orders: IntArray
    ) -> None:
        """Refuse a :class:`~repro.sim.batchkernel.RowBase` the kernel's
        clipped gathers could misread."""
        rows = base.rows
        N, T = assignments.shape
        P = base.assignments.shape[0]
        # One pass: negative rows wrap to huge unsigned values.
        if (rows.shape != (N,) or rows.dtype != np.int64 or P == 0
                or int(rows.view(np.uint64).max()) >= P):
            raise ScheduleError(
                f"base rows must be {N} int64 indices into {P} base rows"
            )
        if (base.assignments.dtype != assignments.dtype
                or base.orders.dtype != orders.dtype
                or base.assignments.shape != (P, T)
                or base.orders.shape != (P, T)):
            raise ScheduleError(
                "base genes must match the batch's dtypes and task count"
            )
        fp = base.fingerprints
        width = 2 * self._num_queues
        if fp.dtype != np.uint64 or fp.shape != (P, width):
            raise ScheduleError(
                f"base fingerprints must be ({P}, {width}) uint64"
            )
