#!/usr/bin/env python
"""Closing the paper's loop: offline analysis → online energy budget.

The paper's conclusion: the offline Pareto-front analysis tells the
administrator where the system runs most efficiently; "these energy
constraints could then be used in conjunction with a separate online
dynamic utility maximization heuristics."  This example does exactly
that:

1. run the offline NSGA-II analysis on data set 1 and locate the max
   utility-per-energy region;
2. take that region's energy coordinate as the *online budget*;
3. replay the same trace **online** (tasks revealed at arrival, no
   reordering) under three policies — unconstrained max-utility,
   utility-per-energy, and budget-constrained utility maximization;
4. compare the online outcomes against the offline front.

Run:  python examples/online_dispatch.py
"""

from repro import dataset1, NSGA2, AlgorithmConfig, ScheduleEvaluator
from repro.analysis import ParetoFront
from repro.analysis.report import ascii_scatter, format_table
from repro.extensions.online import (
    BudgetedUtilityPolicy,
    MaxUtilityPolicy,
    OnlineDispatcher,
    UtilityPerEnergyPolicy,
    budget_from_front,
)
from repro.heuristics import MaxUtilityPerEnergy


def main() -> None:
    bundle = dataset1(seed=31)
    evaluator = ScheduleEvaluator(bundle.system, bundle.trace)

    # --- Offline stage: the paper's analysis framework. ---
    seed = MaxUtilityPerEnergy().build(bundle.system, bundle.trace)
    ga = NSGA2(evaluator, AlgorithmConfig(population_size=80), seeds=[seed],
               rng=31)
    history = ga.run(generations=250)
    front = ParetoFront(points=history.final.front_points, label="offline front")
    budget = budget_from_front(front)
    print(
        f"offline front: {front.size} points, "
        f"{front.energy_range[0] / 1e6:.3f}-{front.energy_range[1] / 1e6:.3f} MJ"
    )
    print(f"derived online energy budget: {budget / 1e6:.3f} MJ\n")

    # --- Online stage: no lookahead, no reordering. ---
    dispatcher = OnlineDispatcher(bundle.system, bundle.trace)
    outcomes = [
        dispatcher.run(MaxUtilityPolicy()),
        dispatcher.run(UtilityPerEnergyPolicy()),
        dispatcher.run(BudgetedUtilityPolicy(), energy_budget=budget),
    ]

    rows = []
    for outcome in outcomes:
        rows.append(
            [
                outcome.policy,
                f"{outcome.energy / 1e6:.3f}",
                f"{outcome.utility:.1f}",
                outcome.num_dropped,
                "yes" if outcome.energy <= budget else "no",
            ]
        )
    print(
        format_table(
            ["online policy", "energy (MJ)", "utility", "dropped",
             "within budget"],
            rows,
        )
    )

    budgeted = outcomes[-1]
    offline_at_budget = front.utility_at_energy(budget)
    print(
        f"\nbudgeted online utility: {budgeted.utility:.1f} vs offline front "
        f"at the same energy: {offline_at_budget:.1f} "
        f"(online gap = price of no lookahead/reordering)"
    )

    print()
    print(
        ascii_scatter(
            {
                "offline front": front.points,
                "online outcomes": __import__("numpy").array(
                    [o.objectives for o in outcomes]
                ),
            },
            width=64,
            height=14,
        )
    )


if __name__ == "__main__":
    main()
