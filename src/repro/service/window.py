"""Pinned-prefix window evaluation over a growing committed horizon.

Every window is optimized over the *full* horizon — all committed
(already dispatched) tasks plus the window's free tasks — with the
committed genes frozen in every chromosome, so queue backlogs left by
earlier dispatches shape each window's objectives.  Committed order
keys are the keys the winning chromosome carried when its window was
optimized; free keys are offset by ``order_base`` (the count of every
task committed so far), so committed tasks sort strictly before free
tasks in every machine queue.

Each queue's committed prefix is therefore the same for every
chromosome of a window, and so are the end values of the batch
kernel's four folds over it (:mod:`repro.sim.batchkernel`): the
exec-time sum, the running maximum of ``arrival − preceding sum``, and
the utility and energy partials.  :class:`PrefixState` holds them per
machine, and :class:`WindowEvaluator` continues the folds over the free
tasks only — O(free tasks) per chromosome instead of O(horizon), with
every objective bit-identical to folding the whole horizon.

:class:`CommittedLedger` is the durable record of dispatched tasks.
Objectives are service-cumulative: horizon totals plus the ledger's
compaction offsets.  Compaction drops committed tasks that can no
longer interact with future arrivals, bounding the horizon for
indefinite streams.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import ScheduleError
from repro.obs.context import NULL_CONTEXT
from repro.sim.batchkernel import _column_left_folds
from repro.sim.evaluator import EvaluationResult, _KernelScratch, _queue_order
from repro.types import FloatArray, IntArray
from repro.utility.vectorized import TUFTable
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.system import SystemModel
    from repro.obs.context import RunContext
    from repro.service.stream import WindowBatch

__all__ = ["CommittedLedger", "PrefixState", "WindowEvaluator"]


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
    committed queue order never changes after commit.  ``energy_offset``/``utility_offset``
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
    #: Bumped on every compaction: queue prefixes lose their head, so
    #: prefix folds carried from an earlier epoch would be stale.
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
        keeping them verbatim is what keeps the committed queue prefix
        (and the prefix folds carried across windows) stable.
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
        the surviving queues are folded from a new head — callers must
        rebuild their prefix state.

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
        # runs.
        self.order_keys = np.argsort(
            np.argsort(kept_keys, kind="stable"), kind="stable"
        ).astype(np.int64)
        self.order_base = int(self.order_keys.shape[0])
        self.compacted_total += dropped
        self.epoch += 1
        return dropped


@dataclass(frozen=True)
class PrefixState:
    """End values of the batch kernel's folds over each committed prefix.

    One entry per machine: the exec-time sum ``cs_end``, the running
    maximum ``runmax_end`` of ``arrival − preceding sum`` (``-inf`` on a
    machine with no committed task), and the utility and energy
    partials.  ``committed`` is the number of ledger rows folded in and
    ``epoch`` the ledger epoch they belong to.
    """

    epoch: int
    committed: int
    cs_end: FloatArray
    runmax_end: FloatArray
    u_partial: FloatArray
    e_partial: FloatArray

    @classmethod
    def empty(cls, num_machines: int, epoch: int) -> "PrefixState":
        """The state of a ledger with no committed task."""
        return cls(epoch, 0, np.zeros(num_machines),
                   np.full(num_machines, -np.inf),
                   np.zeros(num_machines), np.zeros(num_machines))

    def advance(
        self,
        system: "SystemModel",
        ledger: CommittedLedger,
        tuf_table: TUFTable,
    ) -> "PrefixState":
        """Fold in the ledger rows committed since this state was taken.

        Those rows sort after every folded row in their queue, so
        continuing the folds over them gives exactly the state a fold
        over the whole ledger would.
        """
        if self.epoch != ledger.epoch:
            raise ScheduleError(
                "prefix state from a pre-compaction epoch is stale; "
                "rebuild it from the ledger"
            )
        k0, C = self.committed, ledger.active
        if k0 == C:
            return self
        machines = ledger.machine_assignment[k0:]
        perm = _queue_order(machines, ledger.order_keys[k0:])
        mach = machines[perm]
        types = ledger.task_types[k0:][perm]
        ids, _, _, cs, rm, ue = _fold_queues(
            mach, system.num_machines, self,
            system.etc_task_machine[types, mach],
            ledger.arrival_times[k0:][perm],
            types,
            system.eec_task_machine[types, mach],
            tuf_table,
        )
        folds = []
        for old, new in ((self.cs_end, cs), (self.runmax_end, rm),
                         (self.u_partial, ue[0]), (self.e_partial, ue[1])):
            out = old.copy()
            out[ids] = new
            folds.append(out)
        return PrefixState(ledger.epoch, C, *folds)


def _fold_queues(
    seg: IntArray,
    num_machines: int,
    state: PrefixState,
    exec_times: FloatArray,
    arrivals: FloatArray,
    task_types: IntArray,
    energies: FloatArray,
    tuf_table: TUFTable,
):
    """Continue the batch kernel's queue folds from *state*.

    *seg* (segment id ``row × M + machine`` per element) is
    nondecreasing, each segment's elements in queue order.  The planes
    are ``BatchQueueKernel._compute_misses``'s with a leading column
    (row, in the column fold) seeded from the machine's prefix state.

    Returns ``(ids, finish, utility, cs_end, runmax_end, ue)``: segment
    ids, per-element finish times and utilities, and per-segment end
    values (``ue`` stacks the utility and energy folds).
    """
    n = seg.shape[0]
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(seg[1:], seg[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    segc = np.cumsum(new) - 1
    ids = seg[starts]
    S = ids.shape[0]
    # Column 0 holds the seed, so element j of a segment sits in j + 1.
    col = np.arange(1, n + 1) - starts[segc]
    L = int(col.max()) + 1
    mach = ids % num_machines

    cs = np.zeros((S, L))
    cs[:, 0] = state.cs_end[mach]
    cs[segc, col] = exec_times
    rm = np.full((S, L), -np.inf)
    rm[:, 0] = state.runmax_end[mach]
    rm[segc, col] = arrivals
    # Padding (arrival -inf, exec 0.0) leaves the last column holding
    # every segment's end values.
    np.add.accumulate(cs, axis=1, out=cs)
    np.subtract(rm[:, 1:], cs[:, :-1], out=rm[:, 1:])
    np.maximum.accumulate(rm, axis=1, out=rm)
    finish = rm[segc, col] + cs[segc, col]
    utility = tuf_table.evaluate(task_types, finish - arrivals)

    # W >= 2 keeps the column reduce a left fold.
    plane = np.zeros((2, L, max(S, 2)))
    plane[0, 0, :S] = state.u_partial[mach]
    plane[1, 0, :S] = state.e_partial[mach]
    plane[0, col, segc] = utility
    plane[1, col, segc] = energies
    ue = _column_left_folds(plane)[:, :S]
    return ids, finish, utility, cs[:, -1], rm[:, -1], ue


class WindowEvaluator:
    """Evaluator adapter for one dispatch window (free genes only).

    Presents the GA-facing evaluator surface (``system``, ``trace``,
    ``num_tasks``, ``evaluate_batch``) over the window's free tasks and
    scores each chromosome as the horizon it completes; the committed
    prefix enters only through :attr:`prefix`.  *tuf_table* defaults
    to one built from *system*.  *carried* is the previous window's
    :attr:`prefix`, advanced by the tasks that window committed instead
    of folding the whole ledger (state from a pre-compaction epoch
    raises :class:`~repro.errors.ScheduleError`).  With *obs* enabled,
    each batch records an ``evaluator.batch`` span.
    """

    def __init__(
        self,
        system: "SystemModel",
        ledger: CommittedLedger,
        batch: "WindowBatch",
        tuf_table: Optional[TUFTable] = None,
        carried: Optional[PrefixState] = None,
        obs: Optional["RunContext"] = None,
    ) -> None:
        if batch.count == 0:
            raise ScheduleError("cannot build a WindowEvaluator for an "
                                "idle (zero-task) window")
        if tuf_table is None:
            tuf_table = TUFTable.from_system(system)
        self.ledger = ledger
        self.batch = batch
        self.committed = ledger.active
        self.order_base = ledger.order_base
        self.kernel_adopted = carried is not None
        if carried is None:
            carried = PrefixState.empty(system.num_machines, ledger.epoch)
        #: Folds of every committed queue prefix at this window's start.
        self.prefix = carried.advance(system, ledger, tuf_table)
        self.obs = obs if obs is not None else NULL_CONTEXT
        self._tuf_table = tuf_table
        types = batch.task_types
        self._etc = system.etc_task_machine[types]
        self._eec = system.eec_task_machine[types]
        self._scratch = _KernelScratch()
        # GA-facing surface: the free tasks as their own trace (absolute
        # arrival times — feasibility only reads task types).
        self.system = system
        self.trace = Trace(
            task_types=types,
            arrival_times=batch.arrival_times,
            window=batch.end,
        )
        self.num_tasks = batch.count
        self.num_machines = system.num_machines
        #: Horizon elements evaluated, and those the prefix state served.
        self.elements_total = 0
        self.elements_reused = 0

    @property
    def reuse_rate(self) -> float:
        """Share of this window's horizon elements served by the prefix
        state instead of being folded (0.0 before the first batch)."""
        total = self.elements_total
        return self.elements_reused / total if total else 0.0

    # -- GA-facing evaluator surface ---------------------------------------

    def _fold(self, assignments: IntArray, orders: IntArray):
        """``(perm, fold)``: the flat free elements' queue order and
        :func:`_fold_queues` over it."""
        assignments = np.asarray(assignments, dtype=np.int64)
        orders = np.asarray(orders, dtype=np.int64)
        N, F = assignments.shape
        if orders.shape != (N, F) or F != self.num_tasks:
            raise ScheduleError(
                f"free genes must be (rows, {self.num_tasks}) arrays; got "
                f"{assignments.shape} and {orders.shape}"
            )
        M = self.num_machines
        seg = (assignments
               + (np.arange(N, dtype=np.int64) * M)[:, None]).reshape(-1)
        perm = _queue_order(seg, orders.reshape(-1), self._scratch)
        sseg = seg[perm]
        task = perm % F
        mach = sseg - (perm // F) * M
        fold = _fold_queues(
            sseg, M, self.prefix,
            self._etc[task, mach],
            self.batch.arrival_times[task],
            self.batch.task_types[task],
            self._eec[task, mach],
            self._tuf_table,
        )
        return perm, fold

    def _totals(
        self, N: int, ids: IntArray, ue: FloatArray
    ) -> tuple[FloatArray, FloatArray]:
        """Service-cumulative per-row ``(energies, utilities)``: the
        kernel's left fold over machines, from the prefix partials."""
        q = np.empty((2, N, self.num_machines))
        q[0] = self.prefix.u_partial
        q[1] = self.prefix.e_partial
        q.reshape(2, -1)[:, ids] = ue
        utilities, energies = np.add.accumulate(q, axis=2)[:, :, -1]
        ledger = self.ledger
        if ledger.energy_offset or ledger.utility_offset:
            energies = energies + ledger.energy_offset
            utilities = utilities + ledger.utility_offset
        return energies, utilities

    def evaluate_batch(
        self, assignments: IntArray, orders: IntArray
    ) -> tuple[FloatArray, FloatArray]:
        """Service-cumulative ``(energies, utilities)`` per free-gene row."""
        t0 = time.perf_counter()
        N = len(assignments)
        if N == 0:
            return np.empty(0), np.empty(0)
        _, (ids, _, _, _, _, ue) = self._fold(assignments, orders)
        result = self._totals(N, ids, ue)
        self.elements_total += N * (self.committed + self.num_tasks)
        self.elements_reused += N * self.committed
        if self.obs.enabled:
            self.obs.record_span(
                "evaluator.batch", time.perf_counter() - t0,
                rows=N, reuse_rate=self.reuse_rate,
            )
        return result

    # -- commit support ----------------------------------------------------

    def evaluate_full(
        self, assignment: IntArray, order: IntArray
    ) -> EvaluationResult:
        """Per-task result of one free-gene chromosome, for the commit.

        Arrays cover the free tasks only; ``energy``/``utility`` are the
        row's service-cumulative totals, as :meth:`evaluate_batch`'s.
        """
        assignment = np.asarray(assignment, dtype=np.int64)
        perm, (ids, finish, utility, _, _, ue) = self._fold(
            assignment[None, :], np.asarray(order)[None, :]
        )
        energies, utilities = self._totals(1, ids, ue)
        tasks = np.arange(self.num_tasks)
        completion = np.empty(self.num_tasks)
        completion[perm] = finish
        task_utilities = np.empty(self.num_tasks)
        task_utilities[perm] = utility
        return EvaluationResult(
            energy=float(energies[0]),
            utility=float(utilities[0]),
            start_times=completion - self._etc[tasks, assignment],
            completion_times=completion,
            task_utilities=task_utilities,
            task_energies=self._eec[tasks, assignment],
        )

    def absolute_orders(self, orders: IntArray) -> IntArray:
        """Free GA order keys shifted to their absolute (ledger) values."""
        return np.asarray(orders, dtype=np.int64) + self.order_base
