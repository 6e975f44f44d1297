"""Ablations A10 and A11: load regimes and front fragility.

* **A10 (oversubscription sweep):** the paper studies three fixed
  (task count, window) points; sweeping the load shows *why* those
  points are interesting — below saturation the trade-off is flat
  (everything earns near-full utility), past it the front stretches
  and the achievable utility fraction collapses.
* **A11 (front robustness):** ETC values are estimates; Monte-Carlo
  runtime noise (±20%) shows how much utility each front point keeps,
  quantifying the fragility of the tightly packed max-utility end.
"""

import numpy as np

from repro.analysis.report import format_table
from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.extensions.robustness import (
    NoiseModel,
    RobustnessAnalyzer,
    front_robustness,
)
from repro.experiments.sweep import oversubscription_sweep
from repro.heuristics import MinMinCompletionTime
from repro.sim.evaluator import ScheduleEvaluator

from conftest import BENCH_SEED, write_output

SWEEP_COUNTS = (50, 150, 250, 400)


def test_a10_oversubscription_sweep(benchmark, ds1):
    points = benchmark.pedantic(
        lambda: oversubscription_sweep(
            ds1.system,
            window=900.0,
            task_counts=list(SWEEP_COUNTS),
            generations=40,
            population_size=30,
            base_seed=BENCH_SEED,
        ),
        rounds=1,
        iterations=1,
    )

    rows = [
        [
            p.num_tasks,
            f"{p.offered_load:.2f}",
            f"{p.utility_fraction * 100:.1f}%",
            f"{p.energy_per_task_at_peak / 1e3:.2f} kJ",
            p.front.size,
        ]
        for p in points
    ]
    write_output(
        "ablation_a10_oversubscription.txt",
        format_table(
            ["tasks", "offered load", "best utility fraction",
             "energy/task @ peak U/E", "front size"],
            rows,
            title="A10: oversubscription sweep on the dataset1 system "
            "(15-min window)",
        ),
    )
    # Achievable utility fraction is monotone non-increasing in load.
    fractions = [p.utility_fraction for p in points]
    assert all(b <= a + 0.02 for a, b in zip(fractions, fractions[1:]))
    # Load ordering sanity.
    loads = [p.offered_load for p in points]
    assert loads == sorted(loads)


def test_a11_front_robustness(benchmark, ds1):
    evaluator = ScheduleEvaluator(ds1.system, ds1.trace, check_feasibility=False)
    seed_alloc = MinMinCompletionTime().build(ds1.system, ds1.trace)
    ga = NSGA2(evaluator, AlgorithmConfig(population_size=40),
               seeds=[seed_alloc], rng=BENCH_SEED)
    hist = ga.run(60)
    analyzer = RobustnessAnalyzer(
        ds1.system, ds1.trace, noise=NoiseModel(sigma=0.2),
        samples=100, tolerance=0.1, seed=BENCH_SEED,
    )

    reports = benchmark.pedantic(
        lambda: front_robustness(analyzer, hist.final), rounds=1, iterations=1
    )

    rows = []
    step = max(1, len(reports) // 8)
    for i in range(0, len(reports), step):
        r = reports[i]
        rows.append(
            [
                i,
                f"{r.nominal_energy / 1e6:.3f}",
                f"{r.nominal_utility:.1f}",
                f"{r.mean_utility:.1f}",
                f"{r.utility_degradation * 100:.1f}%",
                f"{r.prob_within_tolerance * 100:.0f}%",
            ]
        )
    write_output(
        "ablation_a11_robustness.txt",
        format_table(
            ["front idx", "energy (MJ)", "nominal U", "mean U under noise",
             "degradation", "P(U >= 90% nominal)"],
            rows,
            title="A11: front robustness under +-20% runtime noise "
            "(dataset1, min-min-seeded front)",
        ),
    )
    # Energy is nearly noise-proof in the mean (mean-1 factors scale
    # each task's energy linearly), utility is not.
    for r in reports:
        assert abs(r.mean_energy - r.nominal_energy) / r.nominal_energy < 0.05
    assert any(r.utility_degradation > 0 for r in reports)
