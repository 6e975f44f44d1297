"""Crossover and mutation operators (paper Section IV-D).

* **Crossover** — "select two chromosomes uniformly at random ... the
  indices of two genes are selected uniformly at random ... swap all
  the genes between these two indices, from one chromosome to the
  other.  In this operation, the machines the tasks execute on, and
  the global scheduling orders of the tasks are all swapped."
* **Mutation** — "randomly select a chromosome ... select a random
  gene within that chromosome ... mutate the gene by selecting a
  random machine that that task can execute on.  Additionally, we
  select another random gene within the chromosome and then swap the
  global scheduling order between the two genes."

Because crossover swaps *order values* between chromosomes, order
vectors may stop being permutations; orders are therefore interpreted
as priority keys with stable tie-breaks (DESIGN.md).  Setting
``repair_order=True`` renormalizes every offspring's keys back to a
permutation (rank transform), an ablation mode.

Feasibility is preserved by construction: crossover swaps machines
between two chromosomes *at the same gene positions* (same task, so a
feasible machine stays feasible), and mutation redraws only among the
task's feasible machines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import OptimizationError
from repro.model.system import SystemModel
from repro.types import IntArray
from repro.workload.trace import Trace

__all__ = ["FeasibleMachines", "OperatorConfig", "VariationOperators", "repair_orders"]


@dataclass(frozen=True)
class FeasibleMachines:
    """Per-task feasible machine sets, padded for vectorized sampling.

    Attributes
    ----------
    padded:
        ``(T, K)`` int array; row *i* holds task *i*'s feasible machine
        indices in columns ``[0, counts[i])`` (padding repeats the
        first entry, never sampled).
    counts:
        ``(T,)`` number of feasible machines per task.
    """

    padded: IntArray
    counts: IntArray

    @classmethod
    def from_system_trace(cls, system: SystemModel, trace: Trace) -> "FeasibleMachines":
        """Build the per-task table from the system's feasibility mask."""
        trace.validate_against(system.num_task_types)
        mask = system.feasible_task_machine[trace.task_types]  # (T, M)
        counts = mask.sum(axis=1).astype(np.int64)
        if np.any(counts == 0):
            bad = int(np.flatnonzero(counts == 0)[0])
            raise OptimizationError(
                f"task {bad} has no feasible machine in the system"
            )
        T, M = mask.shape
        K = int(counts.max())
        padded = np.zeros((T, K), dtype=np.int64)
        # Row-wise compaction of True columns: argsort pushes True (1)
        # first when sorting by ~mask; simpler: use nonzero and split.
        rows, cols = np.nonzero(mask)
        # positions within each row: 0..count-1 (rows are sorted).
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        within = np.arange(rows.shape[0]) - starts[rows]
        padded[rows, within] = cols
        # Pad with each row's first feasible machine.
        pad_positions = np.arange(K)[None, :] >= counts[:, None]
        padded = np.where(pad_positions, padded[:, [0]], padded)
        padded.setflags(write=False)
        counts.setflags(write=False)
        return cls(padded=padded, counts=counts)

    @property
    def num_tasks(self) -> int:
        """Number of tasks covered."""
        return int(self.counts.shape[0])

    def sample(self, tasks: IntArray, rng: np.random.Generator) -> IntArray:
        """One uniformly random feasible machine for each task in *tasks*."""
        tasks = np.asarray(tasks, dtype=np.int64)
        picks = rng.integers(0, self.counts[tasks])
        return self.padded[tasks, picks]

    def sample_matrix(self, n_rows: int, rng: np.random.Generator) -> IntArray:
        """``(n_rows, T)`` random feasible assignments (population init)."""
        T = self.num_tasks
        picks = rng.integers(0, self.counts[None, :], size=(n_rows, T))
        return self.padded[np.arange(T)[None, :], picks]


def binary_tournament_pairs(
    ranks: IntArray,
    crowding: np.ndarray,
    n_ops: int,
    rng: np.random.Generator,
) -> IntArray:
    """Crowded binary tournament parent pairs (Deb et al. 2002).

    For each parent slot two candidates are drawn uniformly; the one
    with the better (lower) front rank wins, ties broken by larger
    crowding distance, then by index for determinism.  Returns
    ``(n_ops, 2)`` parent indices.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    crowding = np.asarray(crowding, dtype=np.float64)
    if ranks.shape != crowding.shape:
        raise OptimizationError("ranks and crowding shapes differ")
    n = ranks.shape[0]
    candidates = rng.integers(0, n, size=(n_ops, 2, 2))
    a = candidates[..., 0]
    b = candidates[..., 1]
    a_wins = (ranks[a] < ranks[b]) | (
        (ranks[a] == ranks[b]) & (crowding[a] > crowding[b])
    ) | ((ranks[a] == ranks[b]) & (crowding[a] == crowding[b]) & (a <= b))
    return np.where(a_wins, a, b)


def repair_orders(orders: IntArray) -> IntArray:
    """Rank-transform each row back to a permutation of ``0..T-1`` (stable)."""
    orders = np.asarray(orders, dtype=np.int64)
    perm = np.argsort(orders, axis=1, kind="stable")
    ranks = np.empty_like(orders)
    n, T = orders.shape
    np.put_along_axis(ranks, perm, np.broadcast_to(np.arange(T), (n, T)), axis=1)
    return ranks


@dataclass(frozen=True, slots=True)
class OperatorConfig:
    """Variation-operator parameters.

    Attributes
    ----------
    mutation_probability:
        Probability that each offspring chromosome is mutated (paper:
        "the mutation operation is then performed with a probability
        (selected by experimentation) on each offspring").
    mutations_per_offspring:
        Number of gene mutations applied when an offspring is selected
        for mutation (paper: 1).
    repair_order:
        Renormalize offspring order keys to permutations (ablation).
    parent_selection:
        How crossover parents are chosen: ``"uniform"`` — the paper's
        "select two chromosomes uniformly at random"; ``"tournament"``
        — Deb's binary crowded tournament (better rank wins; equal
        ranks: larger crowding distance wins).  Ablation A7 compares
        them.
    """

    mutation_probability: float = 0.25
    mutations_per_offspring: int = 1
    repair_order: bool = False
    parent_selection: str = "uniform"

    def __post_init__(self) -> None:
        if not (0.0 <= self.mutation_probability <= 1.0):
            raise OptimizationError(
                f"mutation_probability must be in [0, 1]; got "
                f"{self.mutation_probability}"
            )
        if self.mutations_per_offspring < 1:
            raise OptimizationError(
                "mutations_per_offspring must be >= 1; got "
                f"{self.mutations_per_offspring}"
            )
        if self.parent_selection not in ("uniform", "tournament"):
            raise OptimizationError(
                "parent_selection must be 'uniform' or 'tournament'; got "
                f"{self.parent_selection!r}"
            )


class VariationOperators:
    """Applies the paper's crossover and mutation to packed populations."""

    def __init__(self, feasible: FeasibleMachines, config: OperatorConfig) -> None:
        self.feasible = feasible
        self.config = config

    # -- crossover ---------------------------------------------------------

    def crossover_population(
        self,
        assignments: IntArray,
        orders: IntArray,
        rng: np.random.Generator,
        parent_pairs: IntArray | None = None,
        n_offspring: int | None = None,
        out: tuple[IntArray, IntArray] | None = None,
        base_out: IntArray | None = None,
    ) -> tuple[IntArray, IntArray]:
        """Produce an offspring population via range-swap crossover.

        With *n_offspring* ``None`` (the default), ``N/2`` crossover
        operations, each on two parents, each producing two children
        (Algorithm 1, steps 3-4) — the legacy generational behaviour on
        the historical RNG stream, completed by one cloned parent when
        N is odd.  An explicit *n_offspring* k runs ``ceil(k / 2)``
        operations and truncates to exactly k children (steady-state
        NSGA-II uses k = 1).  Parents default to uniform random draws
        (the paper's selection); the engine passes *parent_pairs* of
        one row per operation when tournament selection is configured.

        *out*, when given, is a pair of gene buffers (the engine's slab
        rows after the parents) with room for every child written —
        ``2·ceil(k/2)`` rows, or N — and the children are returned as
        views of their leading rows.  Otherwise the children are fresh
        arrays of the parents' dtype.

        *base_out*, when given, is an int64 array with room for every
        child written; entry *i* receives the parent row child *i* was
        copied from before its range swap (the clone's source for an
        odd N).  The child differs from that *base parent* only inside
        the swapped range, which is what lets the evaluator fingerprint
        it as an edit of the parent's queues.
        """
        N, T = assignments.shape
        if N >= 2 and n_offspring is not None and n_offspring < 1:
            raise OptimizationError(
                f"n_offspring must be >= 1, got {n_offspring}"
            )
        n_ops = N // 2 if n_offspring is None else (n_offspring + 1) // 2
        # Rows written: N // 2 pairs plus an odd N's clone, or the pairs.
        rows = N if N < 2 or n_offspring is None else 2 * n_ops
        if out is None:
            child_assign = np.empty((rows, T), dtype=assignments.dtype)
            child_order = np.empty((rows, T), dtype=orders.dtype)
        else:
            child_assign, child_order = out[0][:rows], out[1][:rows]
        if N < 2:
            child_assign[...] = assignments
            child_order[...] = orders
            if base_out is not None:
                base_out[:rows] = 0
            return child_assign, child_order
        if parent_pairs is None:
            parents = rng.integers(0, N, size=(n_ops, 2))
        else:
            parents = np.asarray(parent_pairs, dtype=np.int64)
            if parents.shape != (n_ops, 2):
                raise OptimizationError(
                    f"parent_pairs must have shape ({n_ops}, 2); got "
                    f"{parents.shape}"
                )
            if parents.min() < 0 or parents.max() >= N:
                raise OptimizationError("parent_pairs indices out of range")
        # Two gene indices per operation; the swapped range is [lo, hi).
        cuts = rng.integers(0, T + 1, size=(n_ops, 2))
        lo = np.minimum(cuts[:, 0], cuts[:, 1])
        hi = np.maximum(cuts[:, 0], cuts[:, 1])
        # All n_ops swaps at once: a (n_ops, T) mask marks the swapped
        # gene range of each operation.  One interleaved row gather
        # copies the parents (rows pa0, pb0, pa1, pb1, ...; the indices
        # are in range, so mode="clip" only skips NumPy's output
        # buffer), then each pair trades its masked range in place by
        # three masked XORs: an exact swap with no half-batch temporary.
        cols = np.arange(T)[None, :]
        swap = (cols >= lo[:, None]) & (cols < hi[:, None])
        rows_ix = parents.reshape(-1)
        pairs = 2 * n_ops
        for parent, child in ((assignments, child_assign),
                              (orders, child_order)):
            if parent.dtype != child.dtype:
                parent = parent.astype(child.dtype)
            np.take(parent, rows_ix, axis=0, out=child[:pairs], mode="clip")
            first, second = child[0:pairs:2], child[1:pairs:2]
            np.bitwise_xor(first, second, out=first, where=swap)
            np.bitwise_xor(second, first, out=second, where=swap)
            np.bitwise_xor(first, second, out=first, where=swap)
        if base_out is not None:
            base_out[:pairs] = rows_ix
        if n_offspring is not None:
            child_assign = child_assign[:n_offspring]
            child_order = child_order[:n_offspring]
        elif pairs < N:
            # Odd population: clone one extra random parent unchanged.
            extra = int(rng.integers(0, N))
            child_assign[pairs] = assignments[extra]
            child_order[pairs] = orders[extra]
            if base_out is not None:
                base_out[pairs] = extra
        if self.config.repair_order:
            child_order[...] = repair_orders(child_order)
        return child_assign, child_order

    # -- mutation ----------------------------------------------------------

    def mutate_population(
        self,
        assignments: IntArray,
        orders: IntArray,
        rng: np.random.Generator,
    ) -> tuple[IntArray, IntArray]:
        """Mutate each offspring with the configured probability, in place.

        Returns the (possibly same) arrays for chaining.  A mutated child
        keeps its base parent (see :meth:`crossover_population`): the
        redrawn machine and the swapped order keys are a few more edits.
        """
        N, T = assignments.shape
        selected = np.flatnonzero(rng.random(N) < self.config.mutation_probability)
        if selected.size == 0:
            return assignments, orders
        for _ in range(self.config.mutations_per_offspring):
            genes = rng.integers(0, T, size=selected.size)
            new_machines = self.feasible.sample(genes, rng)
            assignments[selected, genes] = new_machines
            partners = rng.integers(0, T, size=selected.size)
            g_vals = orders[selected, genes].copy()
            p_vals = orders[selected, partners].copy()
            orders[selected, genes] = p_vals
            orders[selected, partners] = g_vals
        if self.config.repair_order:
            orders[selected] = repair_orders(orders[selected])
        return assignments, orders
