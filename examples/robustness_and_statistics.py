#!/usr/bin/env python
"""How much can you trust one run, and one ETC estimate?

Two methodology questions the paper leaves open, answered with the
framework's statistics tooling:

1. **Run-to-run variability** — the paper plots one NSGA-II run per
   population.  R repetitions + empirical attainment surfaces show the
   spread a single run hides.
2. **ETC estimation error** — ETC entries are estimates; Monte-Carlo
   runtime noise shows how much utility each front point keeps when
   reality deviates ±20% from the estimates.

Run:  python examples/robustness_and_statistics.py
"""

import numpy as np

from repro import dataset1, NSGA2, AlgorithmConfig, ScheduleEvaluator
from repro.analysis.report import ascii_scatter, format_table
from repro.experiments.repetitions import run_repetitions
from repro.extensions.robustness import (
    NoiseModel,
    RobustnessAnalyzer,
    front_robustness,
)
from repro.heuristics import MinMinCompletionTime


def demo_attainment(bundle) -> None:
    print("== run-to-run variability (5 repetitions, random population) ==")
    result = run_repetitions(
        bundle,
        repetitions=5,
        generations=60,
        population_size=40,
        seed_label="random",
        base_seed=23,
    )
    hv = result.hypervolume
    print(
        f"hypervolume over 5 runs: mean {hv.mean:.3g} +- {hv.std:.2g} "
        f"(min {hv.minimum:.3g}, max {hv.maximum:.3g})"
    )
    print()
    print(
        ascii_scatter(
            {name: surface.points for name, surface in result.attainment.items()},
            width=64,
            height=14,
        )
    )


def demo_robustness(bundle) -> None:
    print("\n== front robustness under +-20% runtime noise ==")
    evaluator = ScheduleEvaluator(bundle.system, bundle.trace)
    seed_alloc = MinMinCompletionTime().build(bundle.system, bundle.trace)
    ga = NSGA2(
        evaluator, AlgorithmConfig(population_size=50), seeds=[seed_alloc],
        rng=23,
    )
    history = ga.run(generations=100)

    analyzer = RobustnessAnalyzer(
        bundle.system,
        bundle.trace,
        noise=NoiseModel(sigma=0.2),
        samples=150,
        tolerance=0.1,
        seed=23,
    )
    reports = front_robustness(analyzer, history.final)

    rows = []
    step = max(1, len(reports) // 6)
    for i in range(0, len(reports), step):
        r = reports[i]
        rows.append(
            [
                i,
                f"{r.nominal_energy / 1e6:.3f}",
                f"{r.nominal_utility:.1f}",
                f"{r.mean_utility:.1f} +- {r.std_utility:.1f}",
                f"[{r.utility_q05:.1f}, {r.utility_q95:.1f}]",
                f"{r.prob_within_tolerance * 100:.0f}%",
            ]
        )
    print(
        format_table(
            ["front idx", "energy (MJ)", "nominal U", "U under noise",
             "90% interval", "P(keep 90%)"],
            rows,
        )
    )
    worst = min(reports, key=lambda r: r.prob_within_tolerance)
    print(
        f"\nmost fragile front point: nominal {worst.nominal_utility:.1f} U, "
        f"keeps >=90% with probability {worst.prob_within_tolerance * 100:.0f}%"
    )


def main() -> None:
    bundle = dataset1(seed=23)
    demo_attainment(bundle)
    demo_robustness(bundle)


if __name__ == "__main__":
    main()
