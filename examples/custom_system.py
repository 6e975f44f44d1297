#!/usr/bin/env python
"""Bring your own system: custom matrices, TUFs, and arrival process.

The framework is not tied to the paper's data sets.  This example
models a small render farm from scratch:

* three machine types (CPU node, GPU node, low-power node) with
  hand-written ETC/EPC values;
* three task types with policy-meaningful time-utility functions
  (interactive preview = hard deadline; batch render = slow linear
  decay; telemetry = low priority exponential);
* a bursty arrival process (renders arrive in waves);
* NSGA-II analysis plus a comparison of both paper rank definitions.

Run:  python examples/custom_system.py
"""

import numpy as np

from repro import NSGA2, AlgorithmConfig, ScheduleEvaluator, SystemModel
from repro.analysis import ParetoFront, max_utility_per_energy_region
from repro.analysis.report import format_front_summary
from repro.core.sorting import domination_count_ranks, fast_nondominated_sort
from repro.heuristics import MaxUtilityPerEnergy
from repro.utility.tuf import TimeUtilityFunction
from repro.workload.arrivals import BurstyArrivals
from repro.workload.generator import TaskTypeMix, WorkloadGenerator


def build_render_farm() -> SystemModel:
    # Rows: preview render, batch render, telemetry crunch.
    # Columns: CPU node, GPU node, low-power node.
    etc = np.array(
        [
            [40.0, 12.0, 150.0],
            [300.0, 90.0, 900.0],
            [20.0, 25.0, 35.0],
        ]
    )
    epc = np.array(
        [
            [220.0, 350.0, 60.0],
            [240.0, 380.0, 65.0],
            [180.0, 300.0, 45.0],
        ]
    )
    system = SystemModel.from_matrices(
        etc,
        epc,
        machine_type_names=["cpu-node", "gpu-node", "low-power-node"],
        task_type_names=["preview", "batch-render", "telemetry"],
        machines_per_type=[3, 2, 3],
    )
    return system.with_utility_functions(
        [
            # Previews are worthless after 2 minutes.
            TimeUtilityFunction.hard_deadline(priority=10.0, deadline_seconds=120.0),
            # Batch renders decay slowly over the hour.
            TimeUtilityFunction.linear(priority=6.0, urgency=1.0 / 3600.0),
            # Telemetry is low priority, decays fast, floor at 1%.
            TimeUtilityFunction.exponential(priority=1.0, urgency=1.0 / 120.0),
        ]
    )


def main() -> None:
    system = build_render_farm()
    print(system.describe())

    # Renders arrive in 6 waves; previews are half the traffic.
    generator = WorkloadGenerator(
        mix=TaskTypeMix.weighted([0.5, 0.2, 0.3]),
        arrivals=BurstyArrivals(num_bursts=6, spread_fraction=0.15),
    )
    trace = generator.generate(num_tasks=240, window=1800.0, seed=3)
    print(f"trace: {trace.num_tasks} tasks in 6 bursts over 30 min")
    print("type counts:", dict(zip(
        ["preview", "batch-render", "telemetry"], trace.type_counts(3).tolist()
    )))

    evaluator = ScheduleEvaluator(system, trace)
    seed = MaxUtilityPerEnergy().build(system, trace)
    ga = NSGA2(evaluator, AlgorithmConfig(population_size=80), seeds=[seed],
               rng=3)
    history = ga.run(generations=250)

    front = ParetoFront(points=history.final.front_points, label="render-farm")
    print()
    print(format_front_summary({"render-farm": front}))
    region = max_utility_per_energy_region(front)
    print(
        f"\nefficient region: {region.region_size} allocations around "
        f"{region.peak_energy / 1e6:.3f} MJ / {region.peak_utility:.1f} utility"
    )

    # The two rank notions from the paper (Section IV-D): Deb's front
    # ranks vs "1 + number of dominating solutions".
    pts = ga.population.objectives
    front_ranks = fast_nondominated_sort(pts)
    count_ranks = domination_count_ranks(pts)
    agree = float(np.mean(front_ranks == count_ranks))
    print(
        f"\nrank definitions agree on {agree * 100:.0f}% of the final "
        f"population (rank-1 sets always coincide: "
        f"{np.array_equal(front_ranks == 1, count_ranks == 1)})"
    )


if __name__ == "__main__":
    main()
