"""MOEA/D — decomposition-based multi-objective optimization (Zhang & Li 2007).

The bi-objective problem is decomposed into ``N`` scalar subproblems,
one per population slot, each minimizing the Tchebycheff aggregation

    g(x | w, z*) = max_i  w_i * (f_i(x) - z*_i)

of the minimization-space objectives against the running ideal point
``z*``, under uniformly spread weight vectors ``w_i = (i/(N-1),
1-i/(N-1))``.  Each subproblem mates within a neighbourhood of the
``T`` closest weight vectors and an accepted child may replace at most
``nr`` neighbouring incumbents — the locality that gives MOEA/D its
even front coverage.

This implementation is the *batch-generational* variant: all N
offspring are produced first (parents drawn from each subproblem's
neighbourhood, range-swap crossover + mutation from the shared operator
pool) and evaluated in one vectorized batch — matching the repo's
batch-evaluation architecture — then replacement scans the offspring in
subproblem order applying the bounded neighbourhood updates.  Because
crossover produces two children per operation, operation ``j`` mates
within the neighbourhood of subproblem ``2j`` and its children serve
subproblems ``2j`` and ``2j+1`` (adjacent weight vectors share most of
their neighbourhoods).

The running ideal point is the only state outside the population, and
is persisted through the ``algo_state`` checkpoint hook so resumed runs
stay bit-identical.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional

import numpy as np

from repro.core.algorithm import EvolutionaryAlgorithm
from repro.core.objectives import ENERGY_UTILITY
from repro.core.population import Population
from repro.errors import OptimizationError
from repro.types import IntArray

__all__ = ["MOEAD"]


class MOEAD(EvolutionaryAlgorithm):
    """MOEA/D with Tchebycheff decomposition over (energy, utility).

    Parameters
    ----------
    neighborhood_size:
        Subproblems mate and replace within this many nearest weight
        vectors (default ``min(20, N)``).
    replace_limit:
        ``nr`` — at most this many neighbourhood incumbents may be
        replaced per offspring (default 2), preventing one strong child
        from colonizing a whole neighbourhood.
    Other parameters are those of
    :class:`~repro.core.algorithm.Algorithm`.  ``offspring_size`` is
    pinned to the population size (one child per subproblem);
    ``operators.parent_selection`` is ignored.
    """

    name = "moead"

    def __init__(
        self,
        *args,
        neighborhood_size: int = 20,
        replace_limit: int = 2,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        # One offspring per subproblem, produced via the explicit
        # crossover path (ceil(N/2) operations truncated to N).
        self.config = replace(
            self.config, offspring_size=self.config.population_size
        )
        N = self.config.population_size
        if replace_limit < 1:
            raise OptimizationError(
                f"replace_limit must be >= 1, got {replace_limit}"
            )
        self.neighborhood_size = max(2, min(int(neighborhood_size), N))
        self.replace_limit = int(replace_limit)
        # Uniform weights; a small floor keeps the Tchebycheff term of
        # both axes active at the extremes.
        t = np.linspace(0.0, 1.0, N)
        self.weights = np.column_stack([t, 1.0 - t])
        self.weights = np.maximum(self.weights, 1e-6)
        # Neighbourhoods: indices of the T nearest weight vectors.
        d = np.abs(self.weights[:, None, 0] - self.weights[None, :, 0])
        self.neighborhoods = np.argsort(d, axis=1, kind="stable")[
            :, : self.neighborhood_size
        ]
        # Running ideal point in minimization space, seeded from the
        # initial population.
        self._ideal = ENERGY_UTILITY.to_minimization(
            self.objectives
        ).min(axis=0)

    # -- decomposition ---------------------------------------------------------

    def _tchebycheff(self, fmin: np.ndarray, subproblems: np.ndarray) -> np.ndarray:
        """g(x | w, z*) for minimization-space points against subproblems.

        ``fmin``: ``(K, 2)`` points; ``subproblems``: ``(K,)`` weight
        indices; returns ``(K,)`` scalarized values.
        """
        w = self.weights[subproblems]
        return (w * (fmin - self._ideal[None, :])).max(axis=1)

    # -- hooks -----------------------------------------------------------------

    def _mating_selection(self, parents: Population) -> Optional[IntArray]:
        n_ops = self._offspring_pairs()
        # Operation j draws both parents from the neighbourhood of
        # subproblem 2j.
        subproblems = np.minimum(
            2 * np.arange(n_ops), self.config.population_size - 1
        )
        picks = self._rng.integers(
            0, self.neighborhood_size, size=(n_ops, 2)
        )
        return self.neighborhoods[subproblems[:, None], picks]

    def _replacement(
        self, parents: Population, offspring: Population
    ) -> Population:
        space = ENERGY_UTILITY
        child_fmin = space.to_minimization(offspring.objectives)
        # Update the ideal point from the whole offspring batch first —
        # every comparison below then uses one consistent z*.
        self._ideal = np.minimum(self._ideal, child_fmin.min(axis=0))
        # Slot j ends up holding row source[j] of the meta-population
        # (parents, then offspring); the genes move once, in one gather.
        N = parents.size
        source = np.arange(N)
        fmin = space.to_minimization(parents.objectives)
        for i in range(offspring.size):
            neighborhood = self.neighborhoods[i]
            g_child = self._tchebycheff(
                np.broadcast_to(child_fmin[i], (neighborhood.size, 2)),
                neighborhood,
            )
            g_incumbent = self._tchebycheff(fmin[neighborhood], neighborhood)
            better = np.flatnonzero(g_child < g_incumbent)
            for j in neighborhood[better[: self.replace_limit]]:
                source[j] = N + i
                fmin[j] = child_fmin[i]
        return parents.concatenate(offspring).select(source)

    # -- checkpointing ---------------------------------------------------------

    def _capture_algo_state(self) -> dict[str, Any]:
        return {"ideal": [float(self._ideal[0]), float(self._ideal[1])]}

    def _restore_algo_state(self, doc: dict[str, Any]) -> None:
        if "ideal" in doc:
            self._ideal = np.asarray(doc["ideal"], dtype=np.float64)
        else:
            # Pre-redesign checkpoint: rebuild z* from the restored
            # population (the best reconstruction available).
            self._ideal = ENERGY_UTILITY.to_minimization(
                self.objectives
            ).min(axis=0)
