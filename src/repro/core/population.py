"""Packed population container for the evolutionary engines.

A population is stored struct-of-arrays: ``(N, T)`` int32 machine
assignments, ``(N, T)`` int32 scheduling-order keys, and ``(N,)``
energy/utility vectors — the layout the batch evaluator and the
variation operators consume directly (HPC guide: operate on whole
arrays, avoid per-object indirection).  Genes are int32 (machine
indices and order keys of any real trace fit; anything outside the
int32 range is refused, never wrapped), which halves every gene copy.

Engines whose replacement is "concatenate, then select" keep their
genes in a :class:`GeneSlab`: parents and offspring are adjacent rows
of one buffer, so the meta-population is a view, and the survivors are
gathered straight into the other buffer.

Every evaluated row also keeps the *fingerprints* the evaluator returns
for it (an array opaque here), which move with the genes like the
objectives do.  Offspring are evaluated as edits of the parent rows
they were copied from, so the evaluator hashes only the genes variation
changed (:mod:`repro.sim.batchkernel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.operators import FeasibleMachines
from repro.errors import OptimizationError
from repro.sim.evaluator import ScheduleEvaluator, stack_fingerprints
from repro.sim.schedule import ResourceAllocation
from repro.types import FloatArray, IntArray

__all__ = ["GeneSlab", "Population", "int32_genes"]

_INT32 = np.iinfo(np.int32)


def int32_genes(values) -> IntArray:
    """*values* as an int32 gene array (no copy when already int32).

    Raises :class:`~repro.errors.OptimizationError` when a value lies
    outside the int32 range instead of wrapping it.
    """
    arr = np.asarray(values)
    if arr.dtype == np.int32:
        return arr
    if arr.size and (arr.min() < _INT32.min or arr.max() > _INT32.max):
        raise OptimizationError(
            f"gene values must lie in the int32 range [{_INT32.min}, "
            f"{_INT32.max}]; got [{arr.min()}, {arr.max()}]"
        )
    return arr.astype(np.int32)


class GeneSlab:
    """Two alternating ``(rows, T)`` int32 buffers per gene array.

    The live parents are rows ``[0, N)`` of the current buffer;
    variation writes offspring straight into the rows after them
    (:meth:`tail`), the meta-population is the view of both
    (:meth:`Population.concatenate`), and survivor selection gathers
    into rows ``[0, N)`` of the other buffer, which then becomes current
    (:meth:`Population.select`).  A population knows it is live through
    its slot — ``(slab, epoch, first row)``, the epoch counting the
    gathers — never through array pointers.

    Rows handed out (:meth:`hand_out`) are never written again: the
    next gather or adoption into their buffer takes a fresh buffer
    instead, so a held population never changes under its holder.
    """

    __slots__ = ("rows", "num_tasks", "epoch", "_buffers", "_pinned",
                 "_current")

    def __init__(self, rows: int, num_tasks: int) -> None:
        self.rows = int(rows)
        self.num_tasks = int(num_tasks)
        self.epoch = 0
        self._buffers: list[Optional[tuple[IntArray, IntArray]]] = [
            self._fresh(), None,
        ]
        self._pinned = [False, False]
        self._current = 0

    def _fresh(self) -> tuple[IntArray, IntArray]:
        shape = (self.rows, self.num_tasks)
        return np.empty(shape, dtype=np.int32), np.empty(shape, dtype=np.int32)

    def holds(self, population: "Population", start: int) -> bool:
        """Whether *population* is live at row *start* of the current
        buffer."""
        slot = population._slot
        return (slot is not None and slot[0] is self
                and slot[1] == self.epoch and slot[2] == start)

    def _view(
        self, start: int, stop: int, energies, utilities, fingerprints
    ) -> "Population":
        # Rows of int32 buffers: nothing for Population() to check.
        assignments, orders = self._buffers[self._current]
        pop = object.__new__(Population)
        pop.assignments = assignments[start:stop]
        pop.orders = orders[start:stop]
        pop.energies = energies
        pop.utilities = utilities
        pop.fingerprints = fingerprints
        pop._slot = (self, self.epoch, start)
        return pop

    def adopt(self, population: "Population") -> "Population":
        """*population* as the live parents (copied in unless it is)."""
        if self.holds(population, 0):
            return population
        if self._pinned[self._current]:
            self._buffers[self._current] = self._fresh()
            self._pinned[self._current] = False
        self.epoch += 1
        n = population.size
        assignments, orders = self._buffers[self._current]
        assignments[:n] = population.assignments
        orders[:n] = population.orders
        return self._view(0, n, population.energies, population.utilities,
                          population.fingerprints)

    def tail(self, start: int) -> tuple[IntArray, IntArray]:
        """Rows ``[start, rows)`` of the current buffer, for offspring."""
        assignments, orders = self._buffers[self._current]
        return assignments[start:], orders[start:]

    def offspring(self, start: int, k: int) -> "Population":
        """The *k* rows from *start* that variation wrote through
        :meth:`tail`, as live (unevaluated) offspring."""
        return self._view(start, start + k, None, None, None)

    def hand_out(self, population: "Population") -> "Population":
        """Live parents *population* as a slot-free population whose
        rows this slab never writes again (their buffer is pinned).

        Without a slot, :meth:`Population.select` and
        :meth:`Population.concatenate` on it copy instead of gathering
        into this slab.
        """
        if self.holds(population, 0):
            self._pinned[self._current] = True
        return Population(population.assignments, population.orders,
                          population.energies, population.utilities,
                          population.fingerprints)

    def gather(
        self, population: "Population", indices: np.ndarray
    ) -> "Population":
        """Rows *indices* of live *population* as the new live parents,
        in the other buffer, which becomes current."""
        other = 1 - self._current
        if self._buffers[other] is None or self._pinned[other]:
            self._buffers[other] = self._fresh()
            self._pinned[other] = False
        dst_a, dst_o = self._buffers[other]
        n = indices.shape[0]
        # mode="clip" (unbuffered) is exact: select() range-checks.
        np.take(population.assignments, indices, axis=0, out=dst_a[:n],
                mode="clip")
        np.take(population.orders, indices, axis=0, out=dst_o[:n],
                mode="clip")
        self._current = other
        self.epoch += 1
        return self._view(0, n, *population._row_data(indices))


@dataclass
class Population:
    """A set of chromosomes with (optionally) evaluated objectives.

    Attributes
    ----------
    assignments, orders:
        ``(N, T)`` int32 arrays (one chromosome per row); other integer
        dtypes are converted, and values outside the int32 range raise
        :class:`~repro.errors.OptimizationError`.
    energies, utilities:
        ``(N,)`` objective vectors; ``None`` until :meth:`evaluate`.
    fingerprints:
        Per-row queue fingerprints from
        :meth:`~repro.sim.evaluator.ScheduleEvaluator.evaluate_rows`, an
        array opaque to the population, which only moves its rows with
        the genes (:func:`~repro.sim.evaluator.stack_fingerprints`
        joins two populations'); ``None`` when no row has any (not yet
        evaluated, restored from a checkpoint, or evaluated where the
        evaluator keeps none: cache off, or batches too small to be
        hashed as edits).  Later offspring of a row are hashed as edits
        of them.
    """

    assignments: IntArray
    orders: IntArray
    energies: Optional[FloatArray] = None
    utilities: Optional[FloatArray] = None
    fingerprints: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    #: ``(slab, epoch, first row)`` while the genes are rows of a
    #: :class:`GeneSlab` (see :meth:`GeneSlab.holds`).
    _slot: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.assignments = int32_genes(self.assignments)
        self.orders = int32_genes(self.orders)
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
        orders = np.empty((size, T), dtype=np.int32)
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

    def evaluate(
        self,
        evaluator: ScheduleEvaluator,
        parents: Optional["Population"] = None,
        bases: Optional[IntArray] = None,
    ) -> None:
        """Fill the objective vectors (and the fingerprints) with one
        batch evaluation.

        *bases*, when given, holds for each row the row of *parents* it
        was copied from before variation edited it (see
        :meth:`~repro.core.operators.VariationOperators.\
crossover_population`); rows are then hashed as edits of their base
        rows.  Objectives are the same with or without it.
        """
        self.energies, self.utilities, self.fingerprints = (
            evaluator.evaluate_rows(self.assignments, self.orders,
                                    parents, bases)
        )

    @property
    def objectives(self) -> FloatArray:
        """``(N, 2)`` array of (energy, utility) pairs."""
        if not self.is_evaluated:
            raise OptimizationError("population has not been evaluated")
        return np.column_stack([self.energies, self.utilities])

    # -- composition -------------------------------------------------------------

    def concatenate(self, other: "Population") -> "Population":
        """Meta-population: self then other (Algorithm 1, step 6).

        When *self* and *other* are a slab's live parents and the
        offspring written after them, the result is a view of both
        rows; otherwise both are copied into a fresh slab.  Either way
        the result is live, so :meth:`select` gathers survivors without
        an intermediate copy.
        """
        if self.num_tasks != other.num_tasks:
            raise OptimizationError("populations cover different task counts")
        if not (self.is_evaluated and other.is_evaluated):
            raise OptimizationError(
                "both populations must be evaluated before combining"
            )
        energies = np.concatenate([self.energies, other.energies])
        utilities = np.concatenate([self.utilities, other.utilities])
        fingerprints = stack_fingerprints((self.fingerprints, self.size),
                                          (other.fingerprints, other.size))
        n = self.size
        slab = None if self._slot is None else self._slot[0]
        if slab is None or not (slab.holds(self, 0)
                                and slab.holds(other, n)):
            slab = GeneSlab(n + other.size, self.num_tasks)
            slab.adopt(self)
            tail_a, tail_o = slab.tail(n)
            tail_a[:other.size] = other.assignments
            tail_o[:other.size] = other.orders
        return slab._view(0, n + other.size, energies, utilities,
                          fingerprints)

    def select(self, indices: np.ndarray) -> "Population":
        """Row subset (keeps objective vectors aligned).

        A live slab population is gathered into the slab's other
        buffer (which becomes current; see :class:`GeneSlab`); any
        other population is copied.  Indices must lie in ``[0, size)``.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0
                             or indices.max() >= self.size):
            raise OptimizationError(
                f"row indices must lie in [0, {self.size})"
            )
        slot = self._slot
        if (slot is not None and slot[0].holds(self, slot[2])
                and indices.shape[0] <= slot[0].rows):
            return slot[0].gather(self, indices)
        return Population(self.assignments[indices], self.orders[indices],
                          *self._row_data(indices))

    def _row_data(self, indices: np.ndarray) -> tuple:
        """``(energies, utilities, fingerprints)`` of rows *indices*."""
        return tuple(None if a is None else a[indices]
                     for a in (self.energies, self.utilities,
                               self.fingerprints))

    def allocation(self, i: int) -> ResourceAllocation:
        """The *i*-th chromosome as a simulator allocation."""
        if not (0 <= i < self.size):
            raise OptimizationError(f"index {i} out of range [0, {self.size})")
        return ResourceAllocation(
            machine_assignment=self.assignments[i],
            scheduling_order=self.orders[i],
        )
