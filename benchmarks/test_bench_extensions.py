"""Ablation A6: the paper's future-work extensions.

* Task dropping: evaluating Figure-3-style allocations under the
  dropping policy strictly saves energy at zero utility cost for
  negligible-utility thresholds.
* DVFS: the bi-objective frontier extends below the plain system's
  provable minimum energy once P-states join the gene space.
"""

import numpy as np

from repro.analysis.report import format_table
from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.extensions.dropping import DroppingPolicy, apply_dropping
from repro.extensions.dvfs import DVFS_PRESETS, make_dvfs_evaluator
from repro.heuristics import MinEnergy, MinMinCompletionTime
from repro.sim.evaluator import ScheduleEvaluator

from conftest import BENCH_SEED, write_output


def test_dropping_saves_energy(benchmark, ds1):
    evaluator = ScheduleEvaluator(ds1.system, ds1.trace, check_feasibility=False)
    alloc = MinMinCompletionTime().build(ds1.system, ds1.trace)

    result = benchmark(
        apply_dropping, evaluator, alloc, DroppingPolicy(utility_threshold=0.05)
    )

    assert result.energy <= result.baseline.energy
    assert result.utility >= result.baseline.utility - 0.05 * result.num_dropped

    rows = [
        ["baseline energy (MJ)", f"{result.baseline.energy / 1e6:.4f}"],
        ["dropped-policy energy (MJ)", f"{result.energy / 1e6:.4f}"],
        ["energy saved (MJ)", f"{result.energy_saved / 1e6:.4f}"],
        ["baseline utility", f"{result.baseline.utility:.1f}"],
        ["dropped-policy utility", f"{result.utility:.1f}"],
        ["tasks dropped", result.num_dropped],
        ["fixed-point rounds", result.rounds],
    ]
    write_output(
        "ablation_a6_dropping.txt",
        format_table(["quantity", "value"], rows,
                     title="A6a: task dropping on dataset1 (min-min allocation)"),
    )


def test_dvfs_extends_frontier(benchmark, ds1):
    plain = ScheduleEvaluator(ds1.system, ds1.trace, check_feasibility=False)
    e_floor = plain.evaluate(MinEnergy().build(ds1.system, ds1.trace)).energy

    def optimize():
        dvfs_ev = make_dvfs_evaluator(ds1.system, ds1.trace, DVFS_PRESETS)
        seed = MinEnergy().build(dvfs_ev.system, ds1.trace)
        ga = NSGA2(dvfs_ev, AlgorithmConfig(population_size=40), seeds=[seed],
                   rng=BENCH_SEED)
        return ga.run(40)

    hist = benchmark.pedantic(optimize, rounds=1, iterations=1)
    e_dvfs = float(hist.final.front_points[:, 0].min())
    assert e_dvfs < e_floor

    rows = [
        ["plain minimum energy (MJ)", f"{e_floor / 1e6:.4f}"],
        ["DVFS frontier minimum (MJ)", f"{e_dvfs / 1e6:.4f}"],
        ["reduction", f"{(1 - e_dvfs / e_floor) * 100:.1f}%"],
        ["P-states", ", ".join(p.name for p in DVFS_PRESETS)],
    ]
    write_output(
        "ablation_a6_dvfs.txt",
        format_table(["quantity", "value"], rows,
                     title="A6b: DVFS frontier extension on dataset1"),
    )
