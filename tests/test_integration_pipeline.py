"""Cross-module integration tests: full pipelines end to end.

Each test exercises a realistic multi-subsystem flow, asserting the
handoffs (not re-testing each unit): data generation → system → GA →
analysis → export → reload.
"""

import json

import numpy as np
import pytest

from repro.analysis.export import figure_to_csv, render_svg_scatter
from repro.analysis.pareto_front import ParetoFront
from repro.analysis.efficiency import max_utility_per_energy_region
from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.core.termination import HypervolumeStagnation
from repro.data.historical import HISTORICAL_EPC, HISTORICAL_ETC
from repro.data.special_purpose import append_special_purpose_columns, choose_accelerated_sets
from repro.data.synthetic import expand_matrix_pair
from repro.extensions.dvfs import DVFS_PRESETS, make_dvfs_evaluator
from repro.extensions.online import BudgetedUtilityPolicy, OnlineDispatcher, budget_from_front
from repro.heuristics import SEEDING_HEURISTICS, MinEnergy
from repro.model.serialization import load_system, save_system
from repro.sim.evaluator import ScheduleEvaluator
from repro.utility.builder import TUFBuilder
from repro.utility.presets import assign_presets
from repro.workload.generator import WorkloadGenerator
from repro.workload.importers import parse_swf_text, trace_from_swf

from repro.experiments.datasets import build_expanded_system
from oracles import simulate_reference
from test_workload_importers import SAMPLE as SWF_SAMPLE


class TestSyntheticToOptimization:
    """Section III-D2 data feeding the Section IV optimization."""

    def test_generated_system_optimizes(self):
        system = build_expanded_system(seed=51, horizon_seconds=600.0)
        trace = WorkloadGenerator.uniform_for(system.num_task_types).generate(
            120, 600.0, seed=52
        )
        evaluator = ScheduleEvaluator(system, trace, check_feasibility=False)
        seeds = [
            cls().build(system, trace) for cls in SEEDING_HEURISTICS.values()
        ]
        ga = NSGA2(evaluator, AlgorithmConfig(population_size=20),
                   seeds=seeds, rng=53)
        hist = ga.run(12)
        front = ParetoFront(points=hist.final.front_points)
        region = max_utility_per_energy_region(front)
        assert region.peak_ratio > 0
        # The min-energy seed point survives on the front edge.
        e_seed, _ = evaluator.objectives(seeds[list(SEEDING_HEURISTICS).index("min-energy")])
        assert front.energy_range[0] <= e_seed + 1e-6

    def test_special_purpose_attracts_accelerated_tasks(self):
        """On the expanded system the min-energy mapping routes every
        accelerated task type to its special machine (10x less energy)."""
        system = build_expanded_system(seed=54, horizon_seconds=600.0)
        trace = WorkloadGenerator.uniform_for(system.num_task_types).generate(
            200, 600.0, seed=55
        )
        alloc = MinEnergy().build(system, trace)
        for i in range(trace.num_tasks):
            tt = system.task_types[int(trace.task_types[i])]
            if tt.is_special_purpose:
                machine = system.machines[int(alloc.machine_assignment[i])]
                assert machine.machine_type.index == tt.special_machine_type


class TestSerializationRoundTrips:
    def test_system_roundtrip_preserves_optimization(self, tmp_path):
        """A serialized+reloaded system produces bit-identical GA runs."""
        system = build_expanded_system(seed=56, horizon_seconds=600.0)
        path = tmp_path / "system.json"
        save_system(system, path)
        reloaded = load_system(path)
        trace = WorkloadGenerator.uniform_for(system.num_task_types).generate(
            60, 600.0, seed=57
        )
        h1 = NSGA2(
            ScheduleEvaluator(system, trace, check_feasibility=False),
            AlgorithmConfig(population_size=12), rng=58,
        ).run(6)
        h2 = NSGA2(
            ScheduleEvaluator(reloaded, trace, check_feasibility=False),
            AlgorithmConfig(population_size=12), rng=58,
        ).run(6)
        np.testing.assert_array_equal(
            h1.final.front_points, h2.final.front_points
        )


class TestSWFToAnalysis:
    def test_swf_through_full_stack(self, small_system, tmp_path):
        trace = trace_from_swf(
            parse_swf_text(SWF_SAMPLE),
            num_task_types=small_system.num_task_types,
            window=600.0,
        )
        evaluator = ScheduleEvaluator(small_system, trace)
        ga = NSGA2(evaluator, AlgorithmConfig(population_size=10), rng=60)
        hist = ga.run(5)
        front = ParetoFront(points=hist.final.front_points)
        svg = render_svg_scatter({"swf": front.points})
        assert svg.startswith("<svg")


class TestTerminationInPipeline:
    def test_stagnation_on_trivial_problem(self, tiny_system, tiny_trace):
        """On a tiny problem the GA converges and the stagnation
        criterion fires well before the generation bound."""
        evaluator = ScheduleEvaluator(tiny_system, tiny_trace,
                                      check_feasibility=False)
        ga = NSGA2(evaluator, AlgorithmConfig(population_size=12), rng=61)
        pts, _ = ga.current_front()
        ref = (float(pts[:, 0].max() * 10), 0.0)
        hist = ga.run_until(
            HypervolumeStagnation(window=8, reference=ref, min_generations=5),
            max_generations=2000,
        )
        assert hist.total_generations < 2000


class TestOfflineOnlineDVFSLoop:
    def test_three_extension_stack(self, small_system, small_trace):
        """DVFS offline optimization -> budget -> online dispatch, all
        on one scenario."""
        dvfs_ev = make_dvfs_evaluator(small_system, small_trace, DVFS_PRESETS)
        seed = MinEnergy().build(dvfs_ev.system, small_trace)
        ga = NSGA2(dvfs_ev, AlgorithmConfig(population_size=16),
                   seeds=[seed], rng=62)
        front = ParetoFront(points=ga.run(15).final.front_points)
        budget = budget_from_front(front, slack=1.2)

        dispatcher = OnlineDispatcher(small_system, small_trace)
        outcome = dispatcher.run(BudgetedUtilityPolicy(), energy_budget=budget)
        assert outcome.energy <= budget + 1e-6


class TestCustomTUFPipeline:
    def test_builder_tufs_through_simulation(self):
        etc = np.array([[10.0, 30.0], [20.0, 5.0]])
        epc = np.array([[100.0, 60.0], [90.0, 140.0]])
        from repro.model.system import SystemModel

        system = SystemModel.from_matrices(etc, epc)
        tufs = [
            TUFBuilder(priority=5.0, urgency=0.01).hold(20.0).linear_to_zero().build(),
            TUFBuilder(priority=2.0, urgency=0.02).exponential_to(0.05).build(),
        ]
        system = system.with_utility_functions(tufs)
        trace = WorkloadGenerator.uniform_for(2).generate(30, 120.0, seed=63)
        evaluator = ScheduleEvaluator(system, trace)
        alloc = MinEnergy().build(system, trace)
        fast = evaluator.evaluate(alloc)
        ref = simulate_reference(system, trace, alloc)
        assert fast.utility == pytest.approx(ref.utility)
        assert fast.energy == pytest.approx(ref.energy)
