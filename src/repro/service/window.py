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
chromosome of a window, and so are the end values of the four queue
folds over it (:func:`~repro.sim.batchkernel.fold_queues`): the
exec-time sum, the running maximum of ``arrival − preceding sum``, and
the utility and energy partials.  :class:`PrefixState` holds them per
machine.  :class:`WindowEvaluator` is a
:class:`~repro.sim.evaluator.ScheduleEvaluator` over the free tasks
alone whose kernel continues the folds from them as the seed column —
O(free tasks) per chromosome instead of O(horizon), with every
objective bit-identical to folding the whole horizon.

:class:`CommittedLedger` is the durable record of dispatched tasks.
Objectives are service-cumulative: horizon totals plus the ledger's
compaction offsets.  Compaction drops committed tasks that can no
longer interact with future arrivals, bounding the horizon for
indefinite streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import ScheduleError
from repro.sim.batchkernel import QueuePrefix, fold_queues, queue_order
from repro.sim.evaluator import (
    EvaluationResult,
    EvaluatorArrays,
    ScheduleEvaluator,
)
from repro.sim.schedule import ResourceAllocation
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
        # Ascending machines in use (np.unique's first call would
        # import numpy.ma mid-service).
        for m in np.flatnonzero(np.bincount(self.machine_assignment)):
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
        perm = queue_order(machines, ledger.order_keys[k0:])
        mach = machines[perm]
        types = ledger.task_types[k0:][perm]
        folds = fold_queues(
            mach,
            system.etc_task_machine[types, mach],
            ledger.arrival_times[k0:][perm],
            types,
            system.eec_task_machine[types, mach],
            tuf_table,
            seed=self.seed,
        )
        ends = [old.copy() for old in self.seed]
        for out, new in zip(ends, (folds.cs_end, folds.runmax_end, *folds.ue)):
            out[folds.ids] = new
        return PrefixState(ledger.epoch, C, *ends)

    @property
    def seed(self) -> tuple[FloatArray, ...]:
        """The per-machine fold start values, as ``fold_queues`` seeds."""
        return (self.cs_end, self.runmax_end, self.u_partial, self.e_partial)


class WindowEvaluator(ScheduleEvaluator):
    """The evaluator of one dispatch window (free genes only).

    A :class:`~repro.sim.evaluator.ScheduleEvaluator` over the window's
    free tasks (their absolute arrival times; feasibility only reads
    task types) whose every queue continues from the committed prefix
    (:attr:`prefix`) and whose totals carry the ledger's compaction
    offsets, so each chromosome scores as the horizon it completes,
    service-cumulative.  *tuf_table* defaults to one built from
    *system*.  *carried* is the previous window's :attr:`prefix`,
    advanced by the tasks that window committed instead of folding the
    whole ledger (state from a pre-compaction epoch raises
    :class:`~repro.errors.ScheduleError`).  A window's rows hold a few
    free tasks each, where hashing and probing cost about as much as
    folding, so the queue-state cache is off.
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
        trace = Trace(
            task_types=batch.task_types,
            arrival_times=batch.arrival_times,
            window=batch.end,
        )
        super().__init__(
            system, trace, check_feasibility=False, cache_size=0, obs=obs,
            precomputed=EvaluatorArrays.gather(
                system, batch.task_types, tuf_table
            ),
            prefix=QueuePrefix(
                self.prefix.seed, self.committed,
                ledger.energy_offset, ledger.utility_offset,
            ),
        )

    def evaluate_full(
        self, assignment: IntArray, order: IntArray
    ) -> EvaluationResult:
        """Per-task result of one free-gene chromosome, for the commit.

        Arrays cover the free tasks only; ``energy``/``utility`` are the
        row's service-cumulative totals, as :meth:`evaluate_batch`'s.
        """
        return self.evaluate(ResourceAllocation(
            machine_assignment=assignment, scheduling_order=order,
        ))

    def absolute_orders(self, orders: IntArray) -> IntArray:
        """Free GA order keys shifted to their absolute (ledger) values."""
        return np.asarray(orders, dtype=np.int64) + self.order_base
