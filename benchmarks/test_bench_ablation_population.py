"""Ablation A2: population size.

For a fixed evaluation budget (population x generations = constant),
sweeps the NSGA-II population size.  Larger populations carry more
front diversity per generation; smaller ones iterate more — the sweep
shows where the balance lands on data set 1, and that front *size*
grows with N (the front can hold at most N points).
"""

import numpy as np

from repro.analysis.indicators import hypervolume
from repro.analysis.report import format_table
from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.sim.evaluator import ScheduleEvaluator

from conftest import BENCH_SEED, write_output

#: (population, generations) pairs at a constant ~4800-evaluation budget.
BUDGET_POINTS = ((20, 240), (40, 120), (80, 60), (160, 30))


def run_sweep(ds1):
    evaluator = ScheduleEvaluator(ds1.system, ds1.trace, check_feasibility=False)
    outcomes = {}
    for pop, gens in BUDGET_POINTS:
        ga = NSGA2(evaluator, AlgorithmConfig(population_size=pop),
                   rng=BENCH_SEED)
        hist = ga.run(gens)
        outcomes[(pop, gens)] = hist.final.front_points
    all_pts = np.vstack(list(outcomes.values()))
    ref = (float(all_pts[:, 0].max() * 1.01), 0.0)
    return {
        key: (hypervolume(pts, ref), pts.shape[0])
        for key, pts in outcomes.items()
    }


def test_population_size_sweep(benchmark, ds1):
    results = benchmark.pedantic(lambda: run_sweep(ds1), rounds=1, iterations=1)

    rows = [
        [pop, gens, f"{hv:.4g}", size]
        for (pop, gens), (hv, size) in results.items()
    ]
    write_output(
        "ablation_a2_population.txt",
        format_table(
            ["population", "generations", "hypervolume", "front size"],
            rows,
            title="A2: population size at constant evaluation budget (dataset1)",
        ),
    )
    sizes = [size for (_, size) in results.values()]
    pops = [pop for pop, _ in results]
    # Front size is capped by population and grows with it.
    for (pop, _), (_, size) in results.items():
        assert size <= pop
    assert sizes[-1] >= sizes[0]
