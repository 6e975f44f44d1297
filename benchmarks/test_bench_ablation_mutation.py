"""Ablation A1: mutation probability.

The paper selects the mutation probability "by experimentation"; this
ablation regenerates that experiment — final-front hypervolume on data
set 1 as the probability sweeps 0 .. 1 — showing the classic inverted-U
(no mutation stalls exploration; mutation-on-every-offspring disrupts
convergence less than no mutation here because the order swap is mild).
"""

import numpy as np

from repro.analysis.indicators import hypervolume
from repro.analysis.report import format_table
from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.core.operators import OperatorConfig
from repro.sim.evaluator import ScheduleEvaluator

from conftest import BENCH_SEED, write_output

PROBABILITIES = (0.0, 0.1, 0.25, 0.5, 1.0)
GENERATIONS = 60
POP = 40


def run_sweep(ds1):
    evaluator = ScheduleEvaluator(ds1.system, ds1.trace, check_feasibility=False)
    all_pts = []
    finals = {}
    for p in PROBABILITIES:
        ga = NSGA2(
            evaluator,
            AlgorithmConfig(
                population_size=POP,
                operators=OperatorConfig(mutation_probability=p),
            ),
            rng=BENCH_SEED,
        )
        hist = ga.run(GENERATIONS)
        finals[p] = hist.final.front_points
        all_pts.append(hist.final.front_points)
    ref = (float(np.vstack(all_pts)[:, 0].max() * 1.01), 0.0)
    return {p: hypervolume(pts, ref) for p, pts in finals.items()}


def test_mutation_probability_sweep(benchmark, ds1):
    hv = benchmark.pedantic(lambda: run_sweep(ds1), rounds=1, iterations=1)

    rows = [[f"{p:.2f}", f"{hv[p]:.4g}"] for p in PROBABILITIES]
    write_output(
        "ablation_a1_mutation.txt",
        format_table(
            ["mutation probability", "final hypervolume"],
            rows,
            title=f"A1: mutation probability sweep (dataset1, {GENERATIONS} "
            f"generations, pop {POP})",
        ),
    )
    # Some mutation beats none (crossover alone cannot introduce new
    # machine choices into a converged gene pool).
    best_with_mutation = max(hv[p] for p in PROBABILITIES if p > 0)
    assert best_with_mutation >= hv[0.0]
