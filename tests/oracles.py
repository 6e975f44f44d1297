"""Reference implementations the tests compare production code against.

Plain code, no fixtures: every name here restates a production
mechanism the slow, obvious way, so a test can demand bit-identical
results from both.

* :class:`ReferenceSelection` — NSGA-II parent ranking and elitist
  environmental selection on the O(N²) dominance-matrix sort, front by
  front, with no carried rank cache.  :class:`ReferenceNSGA2` and
  :class:`ReferenceEpsArchive` mix it into the production engines.
* :func:`batch_reference_row` — the batch kernel's queue folds as
  scalar Python loops, one chromosome at a time.
* :class:`OracleEvaluator` — a ``ScheduleEvaluator`` whose
  ``evaluate_batch`` answers every row from :func:`batch_reference_row`.
* :func:`simulate_reference` — the schedule semantics straight from
  the paper's prose, one machine and one task at a time.
* :func:`reference_crossover` — the range-swap crossover as one
  ``np.where`` per child half, from fresh parent-row gathers.

The benchmarks load this file by path (``benchmarks/`` has its own
``conftest.py``, so ``tests/`` must never come first on ``sys.path``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.crowding import crowding_truncate
from repro.core.nsga2 import NSGA2, EpsilonArchiveNSGA2
from repro.core.operators import repair_orders
from repro.core.population import Population
from repro.core.sorting import fast_nondominated_sort, fronts_from_ranks
from repro.errors import ScheduleError
from repro.model.system import SystemModel
from repro.sim.evaluator import ScheduleEvaluator
from repro.sim.schedule import ResourceAllocation
from repro.types import FloatArray, IntArray
from repro.workload.trace import Trace

__all__ = [
    "OracleEvaluator",
    "ReferenceEpsArchive",
    "ReferenceNSGA2",
    "ReferenceResult",
    "ReferenceSelection",
    "batch_reference_row",
    "reference_crossover",
    "simulate_reference",
]


class ReferenceSelection:
    """O(N²) NSGA-II selection: the matrix sort, fronts filled one by one.

    Mixed in ahead of an :class:`~repro.core.nsga2.NSGA2` engine, it
    replaces the production rank cache and vectorized fill; the engine
    must pick the same survivors in the same order.
    """

    def _parent_ranks(self) -> IntArray:
        return fast_nondominated_sort(self.objectives, method="matrix")

    def _environmental_selection(self, meta: Population) -> Population:
        N = self.config.population_size
        ranks = fast_nondominated_sort(meta.objectives, method="matrix")
        selected: list[np.ndarray] = []
        count = 0
        for front in fronts_from_ranks(ranks):
            if count + front.size <= N:
                selected.append(front)
                count += front.size
                if count == N:
                    break
            else:
                keep = N - count
                subset = crowding_truncate(meta.objectives[front], keep)
                selected.append(front[subset])
                count = N
                break
        indices = np.concatenate(selected)
        return meta.select(indices)


class ReferenceNSGA2(ReferenceSelection, NSGA2):
    """:class:`~repro.core.nsga2.NSGA2` on the reference selection."""


class ReferenceEpsArchive(ReferenceSelection, EpsilonArchiveNSGA2):
    """:class:`~repro.core.nsga2.EpsilonArchiveNSGA2` on the reference
    selection."""


def batch_reference_row(
    ev, assignment: np.ndarray, order: np.ndarray
) -> tuple[float, float, np.ndarray]:
    """Scalar oracle for the batch kernel's exact fold semantics.

    Returns ``(energy, utility, per-task finish times)`` for one
    chromosome, computing every queue with plain Python left folds.
    The TUF table is evaluated through the same vectorized
    :meth:`~repro.utility.vectorized.TUFTable.evaluate` — it is
    elementwise, so composition cannot change its values — keeping the
    oracle honest about the recurrence while staying usable in tests.
    """
    T = ev.num_tasks
    qg = ev._queue_groups
    queues: dict[int, list[tuple[int, int]]] = {}
    for t in range(T):
        queues.setdefault(int(qg[assignment[t]]), []).append(
            (int(order[t]), t)
        )
    finish = np.empty(T, dtype=np.float64)
    for items in queues.values():
        items.sort()
        cs = 0.0
        rm = -np.inf
        for o, t in items:
            m = int(assignment[t])
            e = float(ev._etc_flat[t * ev.num_machines + m])
            a = float(ev._arrivals[t])
            cs_prev = cs
            cs = cs + e
            key = a - cs_prev
            rm = max(rm, key)
            finish[t] = rm + cs
    elapsed = finish - ev._arrivals
    task_u = ev._tuf_table.evaluate(ev._task_types, elapsed)
    utility = 0.0
    energy = 0.0
    for qid in range(ev._num_queues):
        items = queues.get(qid)
        if not items:
            continue
        u_q = 0.0
        e_q = 0.0
        for o, t in items:
            m = int(assignment[t])
            u_q = u_q + float(task_u[t])
            e_q = e_q + float(ev._eec_flat[t * ev.num_machines + m])
        utility = utility + u_q
        energy = energy + e_q
    return energy, utility, finish


class OracleEvaluator(ScheduleEvaluator):
    """An evaluator that answers ``evaluate_batch`` row by row from the
    scalar oracle :func:`batch_reference_row`.

    Engines run on it exactly as on the production evaluator, so a
    front computed on both must agree bit for bit.  Edit bases are
    ignored and no fingerprint is written (rows keep none).
    """

    def evaluate_batch(self, assignments, orders, base=None,
                       fingerprints=None):
        rows = [batch_reference_row(self, a, o)
                for a, o in zip(np.asarray(assignments), np.asarray(orders))]
        return (np.array([r[0] for r in rows], dtype=np.float64),
                np.array([r[1] for r in rows], dtype=np.float64))


class ReferenceResult(NamedTuple):
    """Outcome of :func:`simulate_reference`."""

    start_times: FloatArray
    completion_times: FloatArray
    energy: float
    utility: float


def simulate_reference(
    system: SystemModel, trace: Trace, allocation: ResourceAllocation
) -> ReferenceResult:
    """Simulate *allocation* with per-machine sequential loops.

    The paper's prose: per machine, tasks execute in global scheduling
    order; "we must ensure that any task's start time is greater than
    or equal to its arrival time.  If this is not the case, the machine
    sits idle until this condition is met."  Energy (Eq. 3) and utility
    (Eq. 1) are summed task by task, each task's utility from its own
    utility function.
    """
    trace.validate_against(system.num_task_types)
    if allocation.num_tasks != trace.num_tasks:
        raise ScheduleError(
            f"allocation covers {allocation.num_tasks} tasks; trace has "
            f"{trace.num_tasks}"
        )
    allocation.validate_against(
        system.num_machines,
        feasible_task_machine=system.feasible_task_machine,
        task_types=trace.task_types,
    )

    T = trace.num_tasks
    start = np.zeros(T, dtype=np.float64)
    finish = np.zeros(T, dtype=np.float64)
    for m in range(system.num_machines):
        available = 0.0
        for task in allocation.machine_queue(m):
            task = int(task)
            begin = max(available, float(trace.arrival_times[task]))
            tt = trace.task_types[task]
            start[task] = begin
            finish[task] = available = (
                begin + float(system.etc_task_machine[tt, m])
            )

    energy = 0.0
    utility = 0.0
    for task in range(T):
        tt = int(trace.task_types[task])
        m = int(allocation.machine_assignment[task])
        energy += float(system.eec_task_machine[tt, m])
        tuf = system.task_types[tt].utility_function
        if tuf is None:
            raise ScheduleError(
                f"task type {tt} has no utility function attached"
            )
        utility += float(tuf(finish[task] - trace.arrival_times[task]))
    return ReferenceResult(start, finish, energy, utility)


def reference_crossover(
    assignments: IntArray,
    orders: IntArray,
    rng: np.random.Generator,
    parent_pairs: IntArray | None = None,
    n_offspring: int | None = None,
    repair_order: bool = False,
) -> tuple[IntArray, IntArray]:
    """:meth:`VariationOperators.crossover_population` with fresh
    gathers: each child half is one ``np.where`` over the swap mask,
    picking the donor parent's row.  Draws the same random numbers in
    the same order, so a seeded run must give the same children."""
    N, T = assignments.shape
    if N < 2:
        return assignments.copy(), orders.copy()
    n_ops = N // 2 if n_offspring is None else (n_offspring + 1) // 2
    child_assign = np.empty((2 * n_ops, T), dtype=np.int64)
    child_order = np.empty((2 * n_ops, T), dtype=np.int64)
    if parent_pairs is None:
        parents = rng.integers(0, N, size=(n_ops, 2))
    else:
        parents = np.asarray(parent_pairs, dtype=np.int64)
    cuts = rng.integers(0, T + 1, size=(n_ops, 2))
    lo = np.minimum(cuts[:, 0], cuts[:, 1])
    hi = np.maximum(cuts[:, 0], cuts[:, 1])
    pa = parents[:, 0]
    pb = parents[:, 1]
    cols = np.arange(T)[None, :]
    swap = (cols >= lo[:, None]) & (cols < hi[:, None])
    child_assign[0::2] = np.where(swap, assignments[pb], assignments[pa])
    child_assign[1::2] = np.where(swap, assignments[pa], assignments[pb])
    child_order[0::2] = np.where(swap, orders[pb], orders[pa])
    child_order[1::2] = np.where(swap, orders[pa], orders[pb])
    if n_offspring is not None:
        child_assign = child_assign[:n_offspring]
        child_order = child_order[:n_offspring]
    elif 2 * n_ops < N:
        extra = int(rng.integers(0, N))
        child_assign = np.vstack([child_assign, assignments[extra][None, :]])
        child_order = np.vstack([child_order, orders[extra][None, :]])
    if repair_order:
        child_order = repair_orders(child_order)
    return child_assign, child_order
