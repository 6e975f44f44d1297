"""Tests for the robustness-under-uncertainty extension."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.errors import ScheduleError
from repro.extensions.robustness import (
    NoiseModel,
    RobustnessAnalyzer,
    front_robustness,
)
from repro.heuristics import MinMinCompletionTime

from conftest import random_allocation
from oracles import batch_reference_row


class TestNoiseModel:
    def test_mean_one(self):
        rng = np.random.default_rng(0)
        factors = NoiseModel(sigma=0.4).sample(200_000, rng)
        assert factors.mean() == pytest.approx(1.0, abs=0.01)
        assert np.all(factors > 0)

    def test_zero_sigma_is_identity(self):
        rng = np.random.default_rng(1)
        np.testing.assert_array_equal(NoiseModel(sigma=0.0).sample(10, rng), 1.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ScheduleError):
            NoiseModel(sigma=-0.1)


def perturbed_bindings(analyzer, factors):
    """Oracle bindings whose ETC/EEC rows carry one sample's runtime
    factors (energy = scaled time × unchanged power)."""
    exec_rows = analyzer._etc_rows * factors[:, None]
    return SimpleNamespace(
        _etc_flat=exec_rows.reshape(-1),
        _eec_flat=(exec_rows * analyzer._epc_rows).reshape(-1),
        _arrivals=analyzer._arrivals, _task_types=analyzer._task_types,
        _tuf_table=analyzer._tuf,
        _queue_groups=np.arange(analyzer.system.num_machines),
        _num_queues=analyzer.system.num_machines,
        num_machines=analyzer.system.num_machines,
        num_tasks=analyzer.trace.num_tasks,
    )


class TestAgainstOracle:
    def test_perturbed_finish_times_match_oracle(self, small_system,
                                                 small_trace):
        """Every noise sample's finish times and totals equal the
        scalar oracle run on that sample's perturbed execution times,
        byte for byte."""
        analyzer = RobustnessAnalyzer(small_system, small_trace, seed=9)
        alloc = random_allocation(small_system, small_trace, seed=10)
        factors = NoiseModel(sigma=0.3).sample(
            (6, small_trace.num_tasks), np.random.default_rng(11)
        )
        energies, utilities, finish = analyzer._simulate(
            alloc.machine_assignment, alloc.scheduling_order, factors
        )
        for r in range(6):
            energy, utility, oracle_finish = batch_reference_row(
                perturbed_bindings(analyzer, factors[r]),
                alloc.machine_assignment, alloc.scheduling_order,
            )
            assert finish[r].tobytes() == oracle_finish.tobytes()
            assert energies[r] == energy
            assert utilities[r] == utility


class TestAnalyzer:
    def test_zero_noise_matches_nominal(self, small_system, small_trace):
        analyzer = RobustnessAnalyzer(
            small_system, small_trace, noise=NoiseModel(sigma=0.0),
            samples=5, seed=2,
        )
        alloc = random_allocation(small_system, small_trace, seed=3)
        report = analyzer.analyze(alloc)
        assert report.mean_energy == pytest.approx(report.nominal_energy)
        assert report.mean_utility == pytest.approx(report.nominal_utility)
        assert report.std_utility == pytest.approx(0.0, abs=1e-9)
        assert report.prob_within_tolerance == 1.0

    def test_nominal_matches_evaluator(self, small_system, small_trace,
                                       small_evaluator):
        analyzer = RobustnessAnalyzer(small_system, small_trace, samples=3,
                                      seed=4)
        alloc = random_allocation(small_system, small_trace, seed=5)
        report = analyzer.analyze(alloc)
        res = small_evaluator.evaluate(alloc)
        assert report.nominal_energy == pytest.approx(res.energy)
        assert report.nominal_utility == pytest.approx(res.utility)

    def test_noise_spreads_outcomes(self, small_system, small_trace):
        analyzer = RobustnessAnalyzer(
            small_system, small_trace, noise=NoiseModel(sigma=0.3),
            samples=100, seed=6,
        )
        alloc = random_allocation(small_system, small_trace, seed=7)
        report = analyzer.analyze(alloc)
        assert report.std_utility > 0
        assert report.std_energy > 0
        assert report.utility_q05 <= report.mean_utility <= report.utility_q95

    def test_more_noise_less_confidence(self, small_system, small_trace):
        alloc = MinMinCompletionTime().build(small_system, small_trace)
        probs = []
        for sigma in (0.05, 0.5):
            analyzer = RobustnessAnalyzer(
                small_system, small_trace, noise=NoiseModel(sigma=sigma),
                samples=150, tolerance=0.05, seed=8,
            )
            probs.append(analyzer.analyze(alloc).prob_within_tolerance)
        assert probs[0] >= probs[1]

    def test_degradation_direction(self, small_system, small_trace):
        """Runtime noise cannot *raise* expected utility much: queues
        only cascade delays (Jensen: utility is concave-ish in delay
        here), so mean utility <= nominal within tolerance."""
        analyzer = RobustnessAnalyzer(
            small_system, small_trace, noise=NoiseModel(sigma=0.3),
            samples=300, seed=9,
        )
        alloc = MinMinCompletionTime().build(small_system, small_trace)
        report = analyzer.analyze(alloc)
        assert report.utility_degradation > -0.05

    def test_validation(self, small_system, small_trace):
        with pytest.raises(ScheduleError):
            RobustnessAnalyzer(small_system, small_trace, samples=0)
        with pytest.raises(ScheduleError):
            RobustnessAnalyzer(small_system, small_trace, tolerance=1.0)
        analyzer = RobustnessAnalyzer(small_system, small_trace, samples=2)
        from repro.sim.schedule import ResourceAllocation

        with pytest.raises(ScheduleError):
            analyzer.analyze(ResourceAllocation(np.array([0]), np.array([0])))


class TestFrontRobustness:
    def test_reports_per_front_point(self, small_system, small_trace,
                                     small_evaluator):
        ga = NSGA2(small_evaluator, AlgorithmConfig(population_size=16),
                   rng=10)
        hist = ga.run(10)
        analyzer = RobustnessAnalyzer(small_system, small_trace, samples=20,
                                      seed=11)
        reports = front_robustness(analyzer, hist.final)
        assert len(reports) == hist.final.front_size
        for report in reports:
            assert report.samples == 20

    def test_requires_solutions(self, small_system, small_trace,
                                small_evaluator):
        ga = NSGA2(small_evaluator, AlgorithmConfig(population_size=16),
                   rng=12)
        hist = ga.run(4, checkpoints=[2, 4])
        analyzer = RobustnessAnalyzer(small_system, small_trace, samples=5)
        with pytest.raises(ScheduleError):
            front_robustness(analyzer, hist.snapshot_at(2))
