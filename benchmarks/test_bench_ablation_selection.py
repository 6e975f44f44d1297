"""Ablation A7: parent selection — the paper's uniform-random draw vs
Deb's crowded binary tournament.

The paper's adapted NSGA-II "select[s] two chromosomes uniformly at
random from the population" for crossover, whereas canonical NSGA-II
uses a crowded binary tournament.  This ablation quantifies the gap on
data set 1 at equal budgets.
"""

import numpy as np

from repro.analysis.indicators import hypervolume
from repro.analysis.report import format_table
from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.core.operators import OperatorConfig
from repro.sim.evaluator import ScheduleEvaluator

from conftest import BENCH_SEED, write_output

GENERATIONS = 80
POP = 40
REPETITIONS = 3


def run_strategy(ds1, selection: str) -> list[np.ndarray]:
    evaluator = ScheduleEvaluator(ds1.system, ds1.trace, check_feasibility=False)
    fronts = []
    for r in range(REPETITIONS):
        ga = NSGA2(
            evaluator,
            AlgorithmConfig(
                population_size=POP,
                operators=OperatorConfig(parent_selection=selection),
            ),
            rng=BENCH_SEED + r,
        )
        fronts.append(ga.run(GENERATIONS).final.front_points)
    return fronts


def test_selection_strategy_comparison(benchmark, ds1):
    results = benchmark.pedantic(
        lambda: {
            "uniform": run_strategy(ds1, "uniform"),
            "tournament": run_strategy(ds1, "tournament"),
        },
        rounds=1,
        iterations=1,
    )
    all_pts = np.vstack([f for fronts in results.values() for f in fronts])
    ref = (float(all_pts[:, 0].max() * 1.01), 0.0)
    mean_hv = {
        name: float(np.mean([hypervolume(f, ref) for f in fronts]))
        for name, fronts in results.items()
    }

    rows = [[name, f"{hv:.4g}"] for name, hv in mean_hv.items()]
    write_output(
        "ablation_a7_selection.txt",
        format_table(
            ["parent selection", "mean final hypervolume (3 reps)"],
            rows,
            title=f"A7: uniform (paper) vs crowded tournament "
            f"(dataset1, {GENERATIONS} gens, pop {POP})",
        ),
    )
    # Both strategies must produce non-trivial fronts; the comparison
    # itself is the deliverable (direction varies with the problem).
    assert all(hv > 0 for hv in mean_hv.values())
