"""Ablation A9: the makespan-energy predecessor as a baseline.

The paper's approach differs from its predecessor (Friese et al. 2012,
reference [3]) by optimizing *utility* instead of *makespan* and by
modeling a trace (arrivals + ordering) instead of a bag of tasks.  This
bench quantifies why that matters: the makespan-optimal allocation is a
mediocre utility earner, and vice versa.
"""

import numpy as np

from repro.analysis.report import format_table
from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.heuristics import MinMinCompletionTime
from repro.sim.evaluator import ScheduleEvaluator
from repro.sim.makespan import MakespanEnergyEvaluator
from repro.sim.schedule import ResourceAllocation

from conftest import BENCH_SEED, write_output

GENERATIONS = 80
POP = 40


def run_both(ds1):
    util_ev = ScheduleEvaluator(ds1.system, ds1.trace, check_feasibility=False)
    mk_ev = MakespanEnergyEvaluator(ds1.system, ds1.trace, bag_of_tasks=False)
    seeds = [MinMinCompletionTime().build(ds1.system, ds1.trace)]

    util_hist = NSGA2(util_ev, AlgorithmConfig(population_size=POP),
                      seeds=seeds, rng=BENCH_SEED, label="utility").run(GENERATIONS)
    mk_hist = NSGA2(mk_ev, AlgorithmConfig(population_size=POP),
                    seeds=seeds, rng=BENCH_SEED, label="makespan").run(GENERATIONS)

    # Champion of each run, cross-evaluated under the other's metric.
    u_final = util_hist.final
    u_champ_row = int(np.argmax(u_final.front_points[:, 1]))
    u_champ = ResourceAllocation(
        u_final.front_assignments[u_champ_row], u_final.front_orders[u_champ_row]
    )
    m_final = mk_hist.final
    m_report = MakespanEnergyEvaluator.to_report_points(m_final.front_points)
    m_champ_row = int(np.argmin(m_report[:, 1]))
    m_champ = ResourceAllocation(
        m_final.front_assignments[m_champ_row], m_final.front_orders[m_champ_row]
    )
    return {
        "utility-champion": {
            "utility": util_ev.evaluate(u_champ).utility,
            "makespan": mk_ev.makespan(u_champ),
        },
        "makespan-champion": {
            "utility": util_ev.evaluate(m_champ).utility,
            "makespan": mk_ev.makespan(m_champ),
        },
    }


def test_makespan_vs_utility_objectives(benchmark, ds1):
    results = benchmark.pedantic(lambda: run_both(ds1), rounds=1, iterations=1)

    rows = [
        [name, f"{vals['utility']:.1f}", f"{vals['makespan']:.1f}"]
        for name, vals in results.items()
    ]
    write_output(
        "ablation_a9_makespan.txt",
        format_table(
            ["champion allocation", "utility earned", "makespan (s)"],
            rows,
            title="A9: utility-objective vs makespan-objective (dataset1, "
            f"{GENERATIONS} gens)",
        ),
    )
    # The utility run's champion earns at least as much utility as the
    # makespan run's; the makespan run's champion finishes no later.
    assert (
        results["utility-champion"]["utility"]
        >= results["makespan-champion"]["utility"] - 1e-9
    )
    assert (
        results["makespan-champion"]["makespan"]
        <= results["utility-champion"]["makespan"] + 1e-9
    )
