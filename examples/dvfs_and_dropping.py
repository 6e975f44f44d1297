#!/usr/bin/env python
"""The paper's future-work extensions in action (Section VII).

1. **Task dropping** — evaluate an optimized allocation under a policy
   that refuses to execute tasks whose utility has decayed to nearly
   nothing, and show the energy saved at (almost) no utility cost.
2. **DVFS** — give every machine three operating points and let the
   same NSGA-II choose placement and frequency jointly; the frontier
   extends below the plain system's provable minimum energy.

Run:  python examples/dvfs_and_dropping.py
"""

import numpy as np

from repro import dataset1, NSGA2, AlgorithmConfig, ScheduleEvaluator
from repro.analysis import ParetoFront
from repro.analysis.report import ascii_scatter, format_table
from repro.extensions.dropping import DroppingPolicy, apply_dropping
from repro.extensions.dvfs import DVFS_PRESETS, make_dvfs_evaluator
from repro.heuristics import MinEnergy, MinMinCompletionTime


def demo_dropping(bundle, evaluator) -> None:
    print("== task dropping ==")
    alloc = MinMinCompletionTime().build(bundle.system, bundle.trace)
    rows = []
    for threshold in (0.0, 0.01, 0.1, 0.5, 1.0):
        result = apply_dropping(
            evaluator, alloc, DroppingPolicy(utility_threshold=max(threshold, 1e-12))
        )
        rows.append(
            [
                f"{threshold:.2f}",
                result.num_dropped,
                f"{result.energy / 1e6:.3f}",
                f"{result.utility:.1f}",
                f"{result.energy_saved / 1e6:.3f}",
            ]
        )
    print(
        format_table(
            ["utility threshold", "dropped", "energy (MJ)", "utility",
             "energy saved (MJ)"],
            rows,
        )
    )


def demo_dvfs(bundle) -> None:
    print("\n== DVFS ==")
    print("P-states:", ", ".join(
        f"{p.name} (speed x{p.speed_factor}, power x{p.power_factor:.2f})"
        for p in DVFS_PRESETS
    ))

    plain_ev = ScheduleEvaluator(bundle.system, bundle.trace,
                                 check_feasibility=False)
    plain_seed = MinEnergy().build(bundle.system, bundle.trace)
    plain_ga = NSGA2(plain_ev, AlgorithmConfig(population_size=60),
                     seeds=[plain_seed], rng=1, label="plain")
    plain_front = ParetoFront(points=plain_ga.run(150).final.front_points,
                              label="plain")

    dvfs_ev = make_dvfs_evaluator(bundle.system, bundle.trace, DVFS_PRESETS)
    dvfs_seed = MinEnergy().build(dvfs_ev.system, bundle.trace)
    dvfs_ga = NSGA2(dvfs_ev, AlgorithmConfig(population_size=60),
                    seeds=[dvfs_seed], rng=1, label="dvfs")
    dvfs_front = ParetoFront(points=dvfs_ga.run(150).final.front_points,
                             label="dvfs")

    print(
        f"plain frontier: {plain_front.energy_range[0] / 1e6:.3f}-"
        f"{plain_front.energy_range[1] / 1e6:.3f} MJ"
    )
    print(
        f"DVFS frontier:  {dvfs_front.energy_range[0] / 1e6:.3f}-"
        f"{dvfs_front.energy_range[1] / 1e6:.3f} MJ  "
        f"(minimum energy reduced by "
        f"{(1 - dvfs_front.energy_range[0] / plain_front.energy_range[0]) * 100:.1f}%)"
    )
    print()
    print(
        ascii_scatter(
            {"plain": plain_front.points, "dvfs": dvfs_front.points},
            width=64,
            height=16,
        )
    )


def main() -> None:
    bundle = dataset1(seed=11)
    evaluator = ScheduleEvaluator(bundle.system, bundle.trace)
    demo_dropping(bundle, evaluator)
    demo_dvfs(bundle)


if __name__ == "__main__":
    main()
