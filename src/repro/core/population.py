"""Packed population container for the NSGA-II engine.

A population is stored struct-of-arrays: ``(N, T)`` machine assignments,
``(N, T)`` scheduling-order keys, and ``(N,)`` energy/utility vectors —
the layout the batch evaluator and the variation operators consume
directly (HPC guide: operate on whole arrays, avoid per-object
indirection).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.operators import FeasibleMachines
from repro.errors import OptimizationError
from repro.sim.evaluator import ScheduleEvaluator
from repro.sim.schedule import ResourceAllocation
from repro.types import FloatArray, IntArray

__all__ = ["Population"]


@dataclass
class Population:
    """A set of chromosomes with (optionally) evaluated objectives.

    Attributes
    ----------
    assignments, orders:
        ``(N, T)`` int arrays (one chromosome per row).
    energies, utilities:
        ``(N,)`` objective vectors; ``None`` until :meth:`evaluate`.
    """

    assignments: IntArray
    orders: IntArray
    energies: Optional[FloatArray] = None
    utilities: Optional[FloatArray] = None

    def __post_init__(self) -> None:
        self.assignments = np.asarray(self.assignments, dtype=np.int64)
        self.orders = np.asarray(self.orders, dtype=np.int64)
        if self.assignments.ndim != 2 or self.assignments.shape != self.orders.shape:
            raise OptimizationError(
                "population arrays must be equal-shape 2-D; got "
                f"{self.assignments.shape} and {self.orders.shape}"
            )

    # -- construction -------------------------------------------------------

    @classmethod
    def random(
        cls,
        feasible: FeasibleMachines,
        size: int,
        rng: np.random.Generator,
    ) -> "Population":
        """Uniformly random feasible population.

        Machines are drawn uniformly among each task's feasible set;
        each chromosome's scheduling order is an independent uniform
        permutation of ``0..T-1``, one ``rng.permutation`` per row.
        """
        if size < 1:
            raise OptimizationError(f"population size must be >= 1, got {size}")
        T = feasible.num_tasks
        assignments = feasible.sample_matrix(size, rng)
        orders = np.empty((size, T), dtype=np.int64)
        for i in range(size):  # permutations per row; loop over N only
            orders[i] = rng.permutation(T)
        return cls(assignments=assignments, orders=orders)

    # -- sizes ---------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of chromosomes ``N``."""
        return int(self.assignments.shape[0])

    @property
    def num_tasks(self) -> int:
        """Genes per chromosome ``T``."""
        return int(self.assignments.shape[1])

    def __len__(self) -> int:
        return self.size

    # -- objectives ------------------------------------------------------------

    @property
    def is_evaluated(self) -> bool:
        """Whether objective vectors are present."""
        return self.energies is not None and self.utilities is not None

    def evaluate(self, evaluator: ScheduleEvaluator) -> None:
        """Fill the objective vectors with one batch evaluation."""
        self.energies, self.utilities = evaluator.evaluate_batch(
            self.assignments, self.orders
        )

    @property
    def objectives(self) -> FloatArray:
        """``(N, 2)`` array of (energy, utility) pairs."""
        if not self.is_evaluated:
            raise OptimizationError("population has not been evaluated")
        return np.column_stack([self.energies, self.utilities])

    # -- composition -------------------------------------------------------------

    def concatenate(self, other: "Population") -> "Population":
        """Meta-population: self then other (Algorithm 1, step 6)."""
        if self.num_tasks != other.num_tasks:
            raise OptimizationError("populations cover different task counts")
        if not (self.is_evaluated and other.is_evaluated):
            raise OptimizationError(
                "both populations must be evaluated before combining"
            )
        return Population(
            assignments=np.vstack([self.assignments, other.assignments]),
            orders=np.vstack([self.orders, other.orders]),
            energies=np.concatenate([self.energies, other.energies]),
            utilities=np.concatenate([self.utilities, other.utilities]),
        )

    def select(self, indices: np.ndarray) -> "Population":
        """Row subset (keeps objective vectors aligned)."""
        indices = np.asarray(indices, dtype=np.int64)
        return Population(
            assignments=self.assignments[indices],
            orders=self.orders[indices],
            energies=None if self.energies is None else self.energies[indices],
            utilities=None if self.utilities is None else self.utilities[indices],
        )

    def allocation(self, i: int) -> ResourceAllocation:
        """The *i*-th chromosome as a simulator allocation."""
        if not (0 <= i < self.size):
            raise OptimizationError(f"index {i} out of range [0, {self.size})")
        return ResourceAllocation(
            machine_assignment=self.assignments[i],
            scheduling_order=self.orders[i],
        )
