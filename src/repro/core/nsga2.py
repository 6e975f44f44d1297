"""The adapted NSGA-II engine (paper Algorithm 1).

Generational loop:

1. create the initial population of N chromosomes (random, optionally
   carrying heuristic seeds);
2. each generation: produce an offspring population of size N via N/2
   range-swap crossovers, mutate each offspring with a configured
   probability, evaluate the offspring in one vectorized batch;
3. combine parents and offspring into a 2N meta-population (elitism);
4. fast nondominated sort; fill the next parent population front by
   front; truncate the last partially fitting front by crowding
   distance;
5. repeat until the termination criterion (generation count) is met.

The run records :class:`GenerationSnapshot`\\ s of the rank-1 front at
requested checkpoint generations — the paper's "Pareto fronts through
various number of iterations" (Figures 3, 4, 6) fall straight out of
one run per seeded population.

Since the :mod:`repro.core.algorithm` redesign, :class:`NSGA2` is one
composition of the :class:`~repro.core.algorithm.EvolutionaryAlgorithm`
template: crowded binary tournament (or the paper's uniform draws) for
mating selection, the default range-swap crossover + mutation for
variation, and rank/crowding environmental selection for replacement.
Steady-state NSGA-II is the same class with
``AlgorithmConfig(offspring_size=1)``.  The composition draws from the
RNG in exactly the pre-refactor order, so fronts and checkpoints are
bit-identical to the monolithic engine (asserted against golden
artifacts by ``tests/test_core_algorithm.py``).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.core.algorithm import (
    Algorithm,
    AlgorithmConfig,
    EvolutionaryAlgorithm,
    GenerationSnapshot,
    RunHistory,
)
from repro.core.archive import EpsilonParetoArchive
from repro.core.crowding import crowding_by_front, crowding_truncate
from repro.core.dominance import nondominated_mask
from repro.core.operators import binary_tournament_pairs
from repro.core.population import Population
from repro.core.sorting import fast_nondominated_sort
from repro.types import FloatArray, IntArray

__all__ = [
    "AlgorithmConfig",
    "GenerationSnapshot",
    "RunHistory",
    "NSGA2",
    "EpsilonArchiveNSGA2",
]


class NSGA2(EvolutionaryAlgorithm):
    """NSGA-II as a composition of the evolutionary template.

    Mating selection is the paper's uniform random draw (crossover
    draws parents itself) or Deb's crowded binary tournament when
    ``config.operators.parent_selection == "tournament"``; replacement
    is elitist rank/crowding environmental selection over the combined
    parent+offspring meta-population.  See
    :class:`~repro.core.algorithm.Algorithm` for constructor
    parameters.
    """

    name = "nsga2"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Cached front ranks of the current parent population, carried
        #: over from the last environmental selection; ``None`` forces a
        #: fresh sort (initial population, resume).
        self._ranks: Optional[IntArray] = None

    # -- hooks -----------------------------------------------------------------

    def _parent_ranks(self) -> IntArray:
        """Front ranks of the current parent population.

        The ranks computed during the previous environmental selection
        are reused: the selected subset keeps complete fronts 1..k plus
        part of front k+1, and every retained point keeps all its
        dominators from lower fronts, so the restriction of the
        meta-population ranks *is* the parent population's
        front-peeling ranks.
        """
        objectives = self.objectives
        if self._ranks is None or self._ranks.shape[0] != objectives.shape[0]:
            self._ranks = fast_nondominated_sort(objectives)
        return self._ranks

    def _mating_selection(self, parents: Population) -> Optional[IntArray]:
        if self.config.operators.parent_selection != "tournament":
            return None
        objectives = parents.objectives
        ranks = self._parent_ranks()
        crowding = crowding_by_front(objectives, ranks)
        return binary_tournament_pairs(
            ranks, crowding, self._offspring_pairs(), self._rng
        )

    def _replacement(
        self, parents: Population, offspring: Population
    ) -> Population:
        meta = parents.concatenate(offspring)
        return self._environmental_selection(meta)

    def _on_restore(self) -> None:
        # The rank cache is derived state; a fresh sort after resume
        # yields the same ranks (they are a pure function of the
        # objectives), so resumed runs stay bit-identical.
        self._ranks = None

    # -- environmental selection -----------------------------------------------

    def _environmental_selection(self, meta: Population) -> Population:
        """Pick the best N of the meta-population (steps 7-10).

        Complete fronts in rank order (index-ascending within a front)
        followed by the crowding-truncated boundary front; the
        survivors' ranks are cached for the next generation's
        tournament.
        """
        N = self.config.population_size
        ranks = fast_nondominated_sort(meta.objectives)
        # (rank, index)-ordered positions; the N-th one pins the
        # boundary front r*: fronts < r* fit completely.
        order = np.argsort(ranks, kind="stable")
        r_star = int(ranks[order[N - 1]])
        n_full = int(np.count_nonzero(ranks < r_star))
        boundary = np.flatnonzero(ranks == r_star)
        subset = crowding_truncate(meta.objectives[boundary], N - n_full)
        indices = np.concatenate([order[:n_full], boundary[subset]])
        self._ranks = ranks[indices]
        return meta.select(indices)


class EpsilonArchiveNSGA2(NSGA2):
    """NSGA-II with an external ε-dominance archive (Laumanns et al. 2002).

    The generational loop is exactly :class:`NSGA2` (same RNG stream,
    same population trajectory); in addition every generation's
    nondominated meta-population points are folded into an
    :class:`~repro.core.archive.EpsilonParetoArchive`, and snapshots
    report the *archive* front instead of the population front.  The
    archive guarantees a bounded, well-spread approximation set: no two
    reported points are within one ε-box of each other, and every point
    ever visited is ε-dominated by some reported point.

    Parameters
    ----------
    epsilon:
        Relative ε resolution: absolute per-axis box sizes are
        ``epsilon`` times the initial population's objective ranges
        (degenerate ranges fall back to 1.0).  Default ``1e-3``.
    Other parameters are those of :class:`~repro.core.algorithm.Algorithm`.
    """

    name = "eps-archive"

    def __init__(self, *args, epsilon: float = 1e-3, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if epsilon <= 0:
            from repro.errors import OptimizationError

            raise OptimizationError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)
        objectives = self.objectives
        span = objectives.max(axis=0) - objectives.min(axis=0)
        span = np.where(span > 0, span, 1.0)
        self.archive = EpsilonParetoArchive(
            epsilons=(self.epsilon * span[0], self.epsilon * span[1])
        )
        self._archive_population(self.population)

    def _archive_population(self, population: Population) -> None:
        """Fold *population*'s nondominated points into the archive
        (payloads are int64 copies: the rows are slab rows)."""
        objectives = population.objectives
        rows = np.flatnonzero(nondominated_mask(objectives))
        payloads = [
            (population.assignments[i].astype(np.int64),
             population.orders[i].astype(np.int64))
            for i in rows
        ]
        self.archive.update(objectives[rows], payloads)

    def _replacement(
        self, parents: Population, offspring: Population
    ) -> Population:
        meta = parents.concatenate(offspring)
        self._archive_population(meta)
        return self._environmental_selection(meta)

    # -- snapshots report the archive front ------------------------------------

    def current_front(self) -> tuple[FloatArray, np.ndarray]:
        """Archive points (sorted by energy) and their archive rows."""
        pts = self.archive.points
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        return pts[order], order

    def _front_solutions(self, rows: np.ndarray) -> tuple[IntArray, IntArray]:
        payloads = self.archive.payloads
        assignments = np.stack([payloads[i][0] for i in rows])
        orders = np.stack([payloads[i][1] for i in rows])
        return assignments, orders

    # -- checkpointing ---------------------------------------------------------

    def _capture_algo_state(self) -> dict[str, Any]:
        payloads = self.archive.payloads
        return {
            "epsilons": list(self.archive.epsilons),
            "points": self.archive.points.tolist(),
            "assignments": [p[0].tolist() for p in payloads],
            "orders": [p[1].tolist() for p in payloads],
        }

    def _restore_algo_state(self, doc: dict[str, Any]) -> None:
        if not doc:
            return  # pre-archive checkpoint: keep the freshly built archive
        self.archive = EpsilonParetoArchive(
            epsilons=tuple(float(e) for e in doc["epsilons"])
        )
        points = np.asarray(doc["points"], dtype=np.float64)
        payloads = [
            (
                np.asarray(a, dtype=np.int64),
                np.asarray(o, dtype=np.int64),
            )
            for a, o in zip(doc["assignments"], doc["orders"])
        ]
        if points.size:
            self.archive.update(points, payloads)
