"""Seeded initial populations (paper Section V-B).

"To use a seed within a population, we generate a new chromosome from
one of the ... heuristics.  We place this chromosome into the
population and create the rest of the chromosomes for that population
randomly."

:func:`seeded_initial_population` implements exactly that, accepting
any number of seed allocations (0 = the all-random population of the
paper's star-marker series; 4 = the all-four-seeds population of the
A5 ablation).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.operators import FeasibleMachines
from repro.core.population import Population
from repro.errors import OptimizationError
from repro.rng import SeedLike, ensure_rng
from repro.sim.schedule import ResourceAllocation
from repro.types import IntArray

__all__ = ["seeded_initial_population", "repair_mapped_seeds"]


def seeded_initial_population(
    feasible: FeasibleMachines,
    size: int,
    seeds: Sequence[ResourceAllocation],
    rng_seed: SeedLike = None,
    order_sampling: str = "legacy",
) -> Population:
    """Random population of *size* with *seeds* occupying the first rows.

    Parameters
    ----------
    feasible:
        Per-task feasible machine table (for the random fill).
    size:
        Total population size ``N``.
    seeds:
        Heuristic allocations to inject (must fit: ``len(seeds) <= size``).
    rng_seed:
        Randomness for the non-seed rows.
    order_sampling:
        Passed through to :meth:`Population.random` — ``"legacy"``
        (default, historical RNG stream) or ``"vectorized"``.
    """
    if len(seeds) > size:
        raise OptimizationError(
            f"{len(seeds)} seeds do not fit in a population of {size}"
        )
    rng = ensure_rng(rng_seed)
    population = Population.random(feasible, size, rng, order_sampling=order_sampling)
    for row, seed in enumerate(seeds):
        if seed.num_tasks != feasible.num_tasks:
            raise OptimizationError(
                f"seed {row} covers {seed.num_tasks} tasks; the trace has "
                f"{feasible.num_tasks}"
            )
        population.assignments[row] = seed.machine_assignment
        population.orders[row] = seed.scheduling_order
    return population


def repair_mapped_seeds(
    donor_task_types: IntArray,
    donor_assignments: IntArray,
    task_types: IntArray,
    feasible: FeasibleMachines,
    rng_seed: SeedLike = None,
    max_seeds: int | None = None,
    arrival_order_first: bool = False,
) -> list[ResourceAllocation]:
    """Warm-start seeds for a *new* task set from a previous window's
    survivors (online service carryover).

    Machine feasibility is a pure function of the task *type*
    (``system.feasible_task_machine[task_types]``), so a machine chosen
    for one task transfers feasibly to any other task of the same type.
    Each donor chromosome becomes one seed: every new task copies the
    machine of a uniformly drawn donor task of its own type (a "repair
    map"); types the donor window never saw fall back to a random
    feasible machine.  Scheduling orders are fresh random permutations
    — the previous window's order keys rank *its* tasks and carry no
    meaning for the new ones.

    Parameters
    ----------
    donor_task_types:
        ``(D,)`` task types of the previous window's trace.
    donor_assignments:
        ``(S, D)`` machine assignments — one donor chromosome per row
        (e.g. the previous window's final front rows).
    task_types:
        ``(T,)`` task types of the new window.
    feasible:
        The new window's :class:`FeasibleMachines` (random fallback and
        seed-size validation).
    rng_seed:
        Randomness for donor draws, fallbacks, and orders.
    max_seeds:
        Keep at most this many donor rows (first rows win — callers
        should order donors best-first).
    arrival_order_first:
        Give the *first* seed the identity scheduling order (tasks in
        arrival order — the FIFO heuristic) instead of a random
        permutation.  Subsequent seeds keep random orders for
        diversity.
    """
    donor_types = np.asarray(donor_task_types, dtype=np.int64)
    donors = np.atleast_2d(np.asarray(donor_assignments, dtype=np.int64))
    types = np.asarray(task_types, dtype=np.int64)
    if donors.shape[1] != donor_types.shape[0]:
        raise OptimizationError(
            f"donor chromosomes cover {donors.shape[1]} tasks; donor trace "
            f"has {donor_types.shape[0]}"
        )
    if types.shape[0] != feasible.num_tasks:
        raise OptimizationError(
            f"task_types covers {types.shape[0]} tasks; feasible table has "
            f"{feasible.num_tasks}"
        )
    if max_seeds is not None:
        donors = donors[:max_seeds]
    rng = ensure_rng(rng_seed)
    S, T = donors.shape[0], types.shape[0]
    assignments = np.empty((S, T), dtype=np.int64)
    rows = np.arange(S)[:, None]
    # Ascending distinct types, as np.unique would give them — but
    # np.unique's first call imports numpy.ma (~17 ms) mid-service.
    for t in np.flatnonzero(np.bincount(types)):
        at = np.flatnonzero(types == t)
        pool = np.flatnonzero(donor_types == t)
        if pool.size:
            # One draw matrix covers every seed row at once.
            picks = rng.integers(0, pool.size, size=(S, at.size))
            assignments[:, at] = donors[rows, pool[picks]]
        else:
            # FeasibleMachines.sample once per seed row, as one call:
            # array bounds draw element by element, so the row-major
            # bounds consume the stream exactly as S calls would.
            picks = rng.integers(0, np.tile(feasible.counts[at], S))
            assignments[:, at] = feasible.padded[at, picks.reshape(S, -1)]
    orders = np.empty((S, T), dtype=np.int64)
    for s in range(S):
        if s == 0 and arrival_order_first:
            orders[s] = np.arange(T)
        else:
            orders[s] = rng.permutation(T)
    return ResourceAllocation.from_rows(assignments, orders)
