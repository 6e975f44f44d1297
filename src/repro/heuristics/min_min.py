"""Min-Min Completion Time seeding heuristic (paper Section V-B4).

The classic two-stage greedy (Ibarra & Kim 1977; Braun et al. 2001;
Maheswaran et al. 1999): repeatedly (1) find, for every unmapped task,
the machine minimizing that task's completion time; (2) among those
(task, machine) pairs, map the pair with the overall minimum completion
time; update the machine's availability; repeat until all tasks are
mapped.

Completion accounts for arrivals: ``max(available_m, arrival_t) + ETC``.

Complexity note: the naive loop is O(T²·M).  Here the per-task best
machine is cached and only invalidated for tasks whose cached best is
the machine just updated — availabilities only grow, so other tasks'
minima cannot change (their other columns are untouched and the
updated column only worsened).  This makes the 4000-task data set
build in well under a second.

Scheduling-order keys follow the *mapping sequence*: the k-th task
mapped gets key k, reproducing Min-Min's queue order on each machine.
"""

from __future__ import annotations

import numpy as np

from repro.heuristics.base import SeedingHeuristic
from repro.model.system import SystemModel
from repro.sim.schedule import ResourceAllocation
from repro.workload.trace import Trace

__all__ = ["MinMinCompletionTime"]


class MinMinCompletionTime(SeedingHeuristic):
    """Two-stage greedy minimum-completion-time mapping.

    After :meth:`build`, :attr:`last_stats` reports how much stage-1
    cache work the run actually did — the scaling regression test pins
    the invalidation cost to O(T·M + K·M) on the 4000-task data set,
    where K (total cache rows recomputed) is empirically under a tenth
    of the ~T²/2 rescans the naive loop performs.
    """

    name = "min-min-completion-time"

    #: Cache-work counters of the most recent :meth:`build`:
    #: ``tasks``/``machines``, ``recomputed_rows`` (stage-1 cache rows
    #: recomputed over the whole run), ``invalidation_rounds`` (mapping
    #: steps that invalidated at least one row).
    last_stats: dict[str, int]

    def build(self, system: SystemModel, trace: Trace) -> ResourceAllocation:
        """Run Min-Min over the whole trace."""
        _, arrivals, etc, _ = self._prepare(system, trace)
        T = trace.num_tasks
        M = system.num_machines
        recomputed_rows = 0
        invalidation_rounds = 0

        available = np.zeros(M, dtype=np.float64)
        assignment = np.empty(T, dtype=np.int64)
        order = np.empty(T, dtype=np.int64)

        # Stage-1 cache: best machine and completion per task.  A mapped
        # task is marked best_c = +inf, best_m = -1, so it never wins
        # stage 2 and never matches an updated machine.
        completion = np.maximum(available[None, :], arrivals[:, None]) + etc
        best_m = np.argmin(completion, axis=1)
        best_c = completion[np.arange(T), best_m]

        for k in range(T):
            # Stage 2: the overall minimum completion among unmapped tasks.
            t = int(np.argmin(best_c))
            m = int(best_m[t])
            assignment[t] = m
            order[t] = k
            available[m] = best_c[t]
            best_c[t] = np.inf
            best_m[t] = -1

            # Invalidate only tasks whose cached best is the updated
            # machine: availabilities never decrease, so other caches
            # stay exact (see module docstring).
            rows = np.flatnonzero(best_m == m)
            if rows.size:
                recomputed_rows += rows.size
                invalidation_rounds += 1
                comp = np.maximum(available[None, :], arrivals[rows, None]) + etc[rows]
                best_m[rows] = np.argmin(comp, axis=1)
                best_c[rows] = comp[np.arange(rows.size), best_m[rows]]

        self.last_stats = {
            "tasks": T,
            "machines": M,
            "recomputed_rows": recomputed_rows,
            "invalidation_rounds": invalidation_rounds,
        }
        return ResourceAllocation(machine_assignment=assignment, scheduling_order=order)
