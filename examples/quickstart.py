#!/usr/bin/env python
"""Quickstart: the paper's analysis loop in ~40 lines of API.

Builds data set 1 (the real 5x9 benchmark data, 250 tasks over 15
minutes), seeds an NSGA-II population with the Min-Min Completion Time
heuristic, evolves it, and reports the energy/utility trade-off curve
plus the max utility-per-energy region a system administrator would
target.

Run:  python examples/quickstart.py
"""

from repro import dataset1, NSGA2, AlgorithmConfig, ScheduleEvaluator
from repro.analysis import ParetoFront, max_utility_per_energy_region
from repro.analysis.report import ascii_scatter, format_front
from repro.heuristics import MinMinCompletionTime


def main() -> None:
    # 1. The environment: machines, ETC/EPC matrices, time-utility
    #    functions, and a recorded trace of task arrivals.
    bundle = dataset1(seed=7)
    print(bundle.system.describe())
    print(f"trace: {bundle.num_tasks} tasks over {bundle.horizon_seconds:.0f} s\n")

    # 2. The simulator: evaluates any complete resource allocation.
    evaluator = ScheduleEvaluator(bundle.system, bundle.trace)

    # 3. A greedy seed, then the bi-objective genetic algorithm.
    seed_alloc = MinMinCompletionTime().build(bundle.system, bundle.trace)
    e, u = evaluator.objectives(seed_alloc)
    print(f"min-min seed: {e / 1e6:.3f} MJ, {u:.1f} utility")

    ga = NSGA2(
        evaluator,
        AlgorithmConfig(population_size=100),
        seeds=[seed_alloc],
        rng=7,
        label="min-min seeded",
    )
    history = ga.run(generations=300, checkpoints=[10, 100, 300])

    # 4. The trade-off analysis.
    front = ParetoFront(points=history.final.front_points, label="final")
    print()
    print(format_front(front, max_rows=12))

    region = max_utility_per_energy_region(front)
    print(
        f"\nmost efficient operating point: {region.peak_utility:.1f} utility "
        f"at {region.peak_energy / 1e6:.3f} MJ "
        f"({region.peak_ratio * 1e6:.1f} utility/MJ)"
    )

    print()
    print(ascii_scatter({"final front": front.points}, width=64, height=16))


if __name__ == "__main__":
    main()
