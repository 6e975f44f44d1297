"""Pinned-prefix window evaluation over a growing committed horizon.

The optimization trick behind the service: instead of re-optimizing
each window in isolation (which would ignore queue backlogs left by
earlier dispatches), every window is optimized over the *full* horizon
trace — all committed (already-dispatched) tasks plus the window's
free tasks — with the committed genes frozen in every chromosome:

* Committed order keys are the keys the winning chromosome carried
  when its window was optimized; free keys are offset by
  ``order_base`` (the count of every task committed so far), so
  committed tasks sort strictly before free tasks in every machine
  queue and their queue prefix is **identical across the whole
  population, across generations, and across windows**.
* Queue content is exactly what the batch kernel's
  content-fingerprint cache keys on: with the previous window's kernel
  state adopted (:meth:`~repro.sim.evaluator.ScheduleEvaluator.adopt_kernel_state`),
  queues that hold only committed tasks hit the cache instead of being
  re-folded.
* Because committed tasks occupy the head of their queues, their
  finish times, energies, and utilities are *constants* with respect
  to the free genes — the committed contribution shifts every
  objective point by the same vector, preserving Pareto structure
  while making each window's objectives service-cumulative.

:class:`CommittedLedger` is the durable record of dispatched tasks;
:class:`WindowEvaluator` is the evaluator adapter the per-window
algorithm runs against (it presents only the free tasks to the GA and
splices the committed prefix into every batch).  Compaction drops
committed tasks that can no longer interact with future arrivals
(queue-prefix finish times at or before the window start), bounding
the horizon length for indefinite streams at the cost of a kernel
cache reset (task indices shift, so fingerprints change).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import ScheduleError
from repro.sim.evaluator import DEFAULT_CACHE_SIZE, ScheduleEvaluator
from repro.sim.schedule import ResourceAllocation
from repro.types import FloatArray, IntArray
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.system import SystemModel
    from repro.obs.context import RunContext
    from repro.service.stream import WindowBatch

__all__ = ["CommittedLedger", "WindowEvaluator"]


def _empty_i64() -> IntArray:
    return np.empty(0, dtype=np.int64)


def _empty_f64() -> FloatArray:
    return np.empty(0, dtype=np.float64)


@dataclass
class CommittedLedger:
    """Record of every dispatched (committed) task still on the horizon.

    Arrays are aligned and arrival-sorted (windows commit in order).
    ``order_keys`` are the absolute scheduling keys committed tasks
    carried when their window was optimized — kept verbatim so the
    committed queue content (and hence its kernel fingerprint) never
    changes after commit.  ``energy_offset``/``utility_offset``
    accumulate the contributions of *compacted* tasks, which leave the
    horizon trace but stay in the service totals.
    """

    task_types: IntArray = field(default_factory=_empty_i64)
    arrival_times: FloatArray = field(default_factory=_empty_f64)
    machine_assignment: IntArray = field(default_factory=_empty_i64)
    order_keys: IntArray = field(default_factory=_empty_i64)
    finish_times: FloatArray = field(default_factory=_empty_f64)
    task_energies: FloatArray = field(default_factory=_empty_f64)
    task_utilities: FloatArray = field(default_factory=_empty_f64)
    energy_offset: float = 0.0
    utility_offset: float = 0.0
    #: Next window's free order keys start here (>= every committed key
    #: + 1, so committed tasks always sort first in their queues).
    order_base: int = 0
    dispatched_total: int = 0
    compacted_total: int = 0
    #: Bumped on every compaction: task indices shift, so adopted
    #: kernel state from an earlier epoch would be silently stale.
    epoch: int = 0

    @property
    def active(self) -> int:
        """Committed tasks still in the horizon trace."""
        return int(self.task_types.shape[0])

    @property
    def total_energy(self) -> float:
        """Cumulative energy of every task ever dispatched."""
        return float(self.task_energies.sum()) + self.energy_offset

    @property
    def total_utility(self) -> float:
        """Cumulative utility of every task ever dispatched."""
        return float(self.task_utilities.sum()) + self.utility_offset

    def commit(
        self,
        batch: "WindowBatch",
        assignment: IntArray,
        order_keys: IntArray,
        finish_times: FloatArray,
        task_energies: FloatArray,
        task_utilities: FloatArray,
    ) -> None:
        """Append one window's dispatched tasks.

        *order_keys* are the absolute keys used during the window's
        optimization (free keys already offset by :attr:`order_base`);
        keeping them verbatim is what makes the committed queue prefix
        byte-stable for the kernel caches.
        """
        count = batch.count
        arrays = (assignment, order_keys, finish_times, task_energies,
                  task_utilities)
        if any(a.shape != (count,) for a in arrays):
            raise ScheduleError(
                f"commit arrays must all have shape ({count},)"
            )
        if count and self.arrival_times.size and (
            batch.arrival_times[0] < self.arrival_times[-1]
        ):
            raise ScheduleError(
                "windows must commit in arrival order (append-only horizon)"
            )
        if count and int(order_keys.min()) < self.order_base:
            raise ScheduleError(
                "committed order keys must not collide with earlier windows"
            )
        self.task_types = np.concatenate([self.task_types, batch.task_types])
        self.arrival_times = np.concatenate(
            [self.arrival_times, batch.arrival_times]
        )
        self.machine_assignment = np.concatenate(
            [self.machine_assignment, assignment.astype(np.int64)]
        )
        self.order_keys = np.concatenate(
            [self.order_keys, order_keys.astype(np.int64)]
        )
        self.finish_times = np.concatenate(
            [self.finish_times, finish_times.astype(np.float64)]
        )
        self.task_energies = np.concatenate(
            [self.task_energies, task_energies.astype(np.float64)]
        )
        self.task_utilities = np.concatenate(
            [self.task_utilities, task_utilities.astype(np.float64)]
        )
        self.dispatched_total += count
        # Advance the base past this window's keys (a permutation of
        # [order_base, order_base + count)), so the next window's free
        # tasks sort strictly after everything committed.
        self.order_base += count

    def compact(self, horizon_start: float) -> int:
        """Drop committed tasks that can no longer affect the future.

        A committed queue prefix is droppable when its last finish time
        is at or before both *horizon_start* (no future arrival can
        slot in front of it) and the arrival of the next committed task
        in the same queue (the survivor's start recurrence then no
        longer depends on the dropped prefix).  Finish times are
        nondecreasing along a queue, so checking the boundary task
        suffices.  Dropped contributions move into the offsets; the
        remaining keys are renumbered densely (order preserved) so
        order keys stay small forever; :attr:`epoch` is bumped because
        horizon task indices shift — callers must rebuild kernel state.

        Returns the number of tasks dropped (0 = nothing to do, and the
        ledger — including :attr:`epoch` — is untouched).
        """
        C = self.active
        if C == 0:
            return 0
        drop = np.zeros(C, dtype=bool)
        for m in np.unique(self.machine_assignment):
            idx = np.flatnonzero(self.machine_assignment == m)
            queue = idx[np.argsort(self.order_keys[idx], kind="stable")]
            finishes = self.finish_times[queue]
            # Longest droppable prefix: walk from the back so one scan
            # finds it (prefix finishes are nondecreasing).
            for r in range(queue.size, 0, -1):
                boundary = (
                    self.arrival_times[queue[r]] if r < queue.size
                    else horizon_start
                )
                if finishes[r - 1] <= min(horizon_start, boundary):
                    drop[queue[:r]] = True
                    break
        dropped = int(drop.sum())
        if dropped == 0:
            return 0
        self.energy_offset += float(self.task_energies[drop].sum())
        self.utility_offset += float(self.task_utilities[drop].sum())
        keep = ~drop
        self.task_types = self.task_types[keep]
        self.arrival_times = self.arrival_times[keep]
        self.machine_assignment = self.machine_assignment[keep]
        self.finish_times = self.finish_times[keep]
        self.task_energies = self.task_energies[keep]
        self.task_utilities = self.task_utilities[keep]
        kept_keys = self.order_keys[keep]
        # Dense renumber preserving relative order: keys stay bounded
        # by the active horizon length no matter how long the stream
        # runs, which keeps the kernel's order-key table applicable.
        self.order_keys = np.argsort(
            np.argsort(kept_keys, kind="stable"), kind="stable"
        ).astype(np.int64)
        self.order_base = int(self.order_keys.shape[0])
        self.compacted_total += dropped
        self.epoch += 1
        return dropped


class WindowEvaluator:
    """Evaluator adapter for one dispatch window (free genes only).

    Presents the GA-facing evaluator surface (``system``, ``trace``,
    ``num_tasks``, ``evaluate_batch``) over the window's **free** tasks
    while evaluating every chromosome on the **full horizon trace**
    with the committed prefix spliced in.  Committed genes are frozen
    and sort first in every queue; free order keys are offset by the
    ledger's ``order_base``.  Objectives returned are
    service-cumulative: horizon totals plus the ledger's compaction
    offsets.

    Construction builds a full :class:`ScheduleEvaluator` over the
    horizon; pass the previous window's adapter via *reuse_from* to
    adopt its batch-kernel queue-state caches (only valid within the
    same ledger epoch — a compaction shifts task indices and forces a
    cold kernel).
    """

    def __init__(
        self,
        system: "SystemModel",
        ledger: CommittedLedger,
        batch: "WindowBatch",
        kernel_method: str = "batch",
        cache_size: int = DEFAULT_CACHE_SIZE,
        obs: Optional["RunContext"] = None,
        reuse_from: Optional["WindowEvaluator"] = None,
    ) -> None:
        if batch.count == 0:
            raise ScheduleError("cannot build a WindowEvaluator for an "
                                "idle (zero-task) window")
        self.ledger = ledger
        self.batch = batch
        self.epoch = ledger.epoch
        self.committed = ledger.active
        self.order_base = ledger.order_base
        horizon_types = np.concatenate([ledger.task_types, batch.task_types])
        horizon_arrivals = np.concatenate(
            [ledger.arrival_times, batch.arrival_times]
        )
        horizon = Trace(
            task_types=horizon_types,
            arrival_times=horizon_arrivals,
            window=batch.end,
        )
        self.horizon_evaluator = ScheduleEvaluator(
            system, horizon,
            check_feasibility=False,
            kernel_method=kernel_method,
            cache_size=cache_size,
            obs=obs,
        )
        self.kernel_adopted = False
        if reuse_from is not None:
            if reuse_from.epoch != ledger.epoch:
                raise ScheduleError(
                    "kernel state from a pre-compaction epoch is stale; "
                    "start the window with a cold evaluator"
                )
            self.kernel_adopted = self.horizon_evaluator.adopt_kernel_state(
                reuse_from.horizon_evaluator
            )
        # GA-facing surface: the free tasks as their own trace (absolute
        # arrival times — feasibility only reads task types).
        self.system = system
        self.trace = Trace(
            task_types=batch.task_types,
            arrival_times=batch.arrival_times,
            window=batch.end,
        )
        self.num_tasks = batch.count
        self.num_machines = system.num_machines
        #: Batch-mode contract: no chromosome cache (mirrors
        #: ScheduleEvaluator's behaviour so callers can introspect).
        self.cache = None

    # -- GA-facing evaluator surface ---------------------------------------

    def _splice(
        self, assignments: IntArray, orders: IntArray
    ) -> tuple[IntArray, IntArray]:
        """Full-horizon (N, C+F) chromosome arrays from free genes."""
        assignments = np.asarray(assignments, dtype=np.int64)
        orders = np.asarray(orders, dtype=np.int64)
        N = assignments.shape[0]
        C, F = self.committed, self.num_tasks
        full_a = np.empty((N, C + F), dtype=np.int64)
        full_o = np.empty((N, C + F), dtype=np.int64)
        full_a[:, :C] = self.ledger.machine_assignment
        full_o[:, :C] = self.ledger.order_keys
        full_a[:, C:] = assignments
        # Free keys sort after every committed key; relative order among
        # free tasks is the GA's permutation.
        full_o[:, C:] = orders + self.order_base
        return full_a, full_o

    def evaluate_batch(
        self, assignments: IntArray, orders: IntArray
    ) -> tuple[FloatArray, FloatArray]:
        """Service-cumulative ``(energies, utilities)`` per free-gene row."""
        full_a, full_o = self._splice(assignments, orders)
        energies, utilities = self.horizon_evaluator.evaluate_batch(
            full_a, full_o
        )
        if self.ledger.energy_offset or self.ledger.utility_offset:
            energies = energies + self.ledger.energy_offset
            utilities = utilities + self.ledger.utility_offset
        return energies, utilities

    # -- commit support ----------------------------------------------------

    def evaluate_full(
        self, assignment: IntArray, order: IntArray
    ):
        """Full per-task result for one free-gene chromosome.

        Used at commit time: per-task finish times feed compaction, and
        per-task energies/utilities feed the ledger.  Bit-identical to
        the batch path (the single-allocation evaluator runs the batch
        kernel's scalar oracle in batch mode).
        """
        full_a, full_o = self._splice(assignment[None, :], order[None, :])
        alloc = ResourceAllocation(
            machine_assignment=full_a[0], scheduling_order=full_o[0]
        )
        return self.horizon_evaluator.evaluate(alloc)

    def absolute_orders(self, orders: IntArray) -> IntArray:
        """Free GA order keys shifted to their absolute (ledger) values."""
        return np.asarray(orders, dtype=np.int64) + self.order_base

    @property
    def cache_stats(self) -> dict:
        """The horizon evaluator's kernel reuse counters."""
        return self.horizon_evaluator.cache_stats

    @property
    def last_batch_stats(self) -> dict:
        """Reuse counters for the most recent batch (empty pre-first)."""
        kernel = self.horizon_evaluator._batch_kernel
        return dict(kernel.last_batch) if kernel is not None else {}
