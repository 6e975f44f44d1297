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

The benchmarks load this file by path (``benchmarks/`` has its own
``conftest.py``, so ``tests/`` must never come first on ``sys.path``).
"""

from __future__ import annotations

import numpy as np

from repro.core.crowding import crowding_truncate
from repro.core.nsga2 import NSGA2, EpsilonArchiveNSGA2
from repro.core.population import Population
from repro.core.sorting import fast_nondominated_sort, fronts_from_ranks
from repro.sim.evaluator import ScheduleEvaluator
from repro.types import IntArray

__all__ = [
    "OracleEvaluator",
    "ReferenceEpsArchive",
    "ReferenceNSGA2",
    "ReferenceSelection",
    "batch_reference_row",
]


class ReferenceSelection:
    """O(N²) NSGA-II selection: the matrix sort, fronts filled one by one.

    Mixed in ahead of an :class:`~repro.core.nsga2.NSGA2` engine, it
    replaces the production rank cache and vectorized fill; the engine
    must pick the same survivors in the same order.
    """

    def _parent_ranks(self) -> IntArray:
        return fast_nondominated_sort(self.population.objectives, method="matrix")

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
    front computed on both must agree bit for bit.
    """

    def evaluate_batch(self, assignments, orders):
        rows = [batch_reference_row(self, a, o)
                for a, o in zip(np.asarray(assignments), np.asarray(orders))]
        return (np.array([r[0] for r in rows], dtype=np.float64),
                np.array([r[1] for r in rows], dtype=np.float64))
