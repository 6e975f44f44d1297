"""Tests for the NSGA-II engine (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.dominance import nondominated_mask
from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.core.operators import OperatorConfig
from repro.errors import OptimizationError
from repro.heuristics import MinEnergy, MinMinCompletionTime


def make_engine(evaluator, seeds=(), rng=0, pop=20):
    return NSGA2(
        evaluator,
        AlgorithmConfig(population_size=pop,
                    operators=OperatorConfig(mutation_probability=0.5)),
        seeds=list(seeds),
        rng=rng,
    )


class TestConfig:
    def test_population_size_validation(self):
        with pytest.raises(OptimizationError):
            AlgorithmConfig(population_size=1)


class TestEngine:
    def test_population_size_constant(self, small_evaluator):
        ga = make_engine(small_evaluator)
        for _ in range(5):
            ga.step()
            assert ga.population.size == 20

    def test_elitism_front_never_regresses(self, small_evaluator):
        """The best front's hypervolume is non-decreasing because the
        meta-population always contains the previous parents."""
        from repro.analysis.indicators import hypervolume

        ga = make_engine(small_evaluator, rng=1)
        ref = (1e9, 0.0)
        last_hv = -1.0
        for _ in range(15):
            ga.step()
            pts, _ = ga.current_front()
            hv = hypervolume(pts, ref)
            assert hv >= last_hv - 1e-6
            last_hv = hv

    def test_min_energy_seed_survives(self, small_system, small_trace,
                                      small_evaluator):
        """The minimum-energy solution is nondominated by construction
        (nothing can use less energy), so elitism keeps its objective
        point forever."""
        seed = MinEnergy().build(small_system, small_trace)
        e0, _ = small_evaluator.objectives(seed)
        ga = make_engine(small_evaluator, seeds=[seed], rng=2)
        for _ in range(10):
            ga.step()
        assert float(ga.population.energies.min()) <= e0 + 1e-6

    def test_current_front_is_nondominated_and_sorted(self, small_evaluator):
        ga = make_engine(small_evaluator, rng=3)
        ga.step()
        pts, rows = ga.current_front()
        assert nondominated_mask(pts).all()
        assert np.all(np.diff(pts[:, 0]) >= 0)
        assert pts.shape[0] == rows.shape[0]

    def test_run_checkpoints(self, small_evaluator):
        ga = make_engine(small_evaluator, rng=4)
        hist = ga.run(10, checkpoints=[2, 5, 10])
        gens = [s.generation for s in hist.snapshots]
        assert gens == [2, 5, 10]
        assert hist.total_generations == 10
        assert hist.final.front_assignments is not None

    def test_run_validates_checkpoints(self, small_evaluator):
        ga = make_engine(small_evaluator, rng=5)
        with pytest.raises(OptimizationError):
            ga.run(5, checkpoints=[10])

    def test_snapshot_at(self, small_evaluator):
        ga = make_engine(small_evaluator, rng=6)
        hist = ga.run(4, checkpoints=[2, 4])
        assert hist.snapshot_at(2).generation == 2
        with pytest.raises(OptimizationError):
            hist.snapshot_at(3)

    def test_evaluation_count(self, small_evaluator):
        ga = make_engine(small_evaluator, rng=7, pop=10)
        hist = ga.run(3)
        # Initial 10 + 3 generations x 10 offspring.
        assert hist.total_evaluations == 10 + 30

    def test_progress_callback(self, small_evaluator):
        ga = make_engine(small_evaluator, rng=8)
        seen = []
        ga.run(3, progress=lambda gen, engine: seen.append(gen))
        assert seen == [1, 2, 3]

    def test_zero_generations(self, small_evaluator):
        ga = make_engine(small_evaluator, rng=9)
        hist = ga.run(0)
        assert hist.total_generations == 0
        assert len(hist.snapshots) == 1


class TestDeterminism:
    def test_same_seed_same_history(self, small_evaluator):
        h1 = make_engine(small_evaluator, rng=42).run(5, checkpoints=[5])
        h2 = make_engine(small_evaluator, rng=42).run(5, checkpoints=[5])
        np.testing.assert_array_equal(
            h1.final.front_points, h2.final.front_points
        )

    def test_different_seed_differs(self, small_evaluator):
        h1 = make_engine(small_evaluator, rng=1).run(5)
        h2 = make_engine(small_evaluator, rng=2).run(5)
        assert not np.array_equal(h1.final.front_points, h2.final.front_points)


class TestOptimizationQuality:
    def test_beats_random_baseline(self, small_system, small_trace,
                                   small_evaluator):
        """After a few dozen generations the GA front should dominate
        most of a fresh random population."""
        from repro.analysis.convergence import dominance_fraction
        from repro.core.operators import FeasibleMachines
        from repro.core.population import Population

        ga = make_engine(small_evaluator, rng=10, pop=30)
        hist = ga.run(40)
        feas = FeasibleMachines.from_system_trace(small_system, small_trace)
        fresh = Population.random(feas, 30, np.random.default_rng(99))
        fresh.evaluate(small_evaluator)
        frac = dominance_fraction(fresh.objectives, hist.final.front_points)
        assert frac > 0.8

    def test_seeded_reaches_seed_quality_immediately(
        self, small_system, small_trace, small_evaluator
    ):
        seed = MinMinCompletionTime().build(small_system, small_trace)
        _, u_seed = small_evaluator.objectives(seed)
        ga = make_engine(small_evaluator, seeds=[seed], rng=11)
        pts, _ = ga.current_front()
        assert float(pts[:, 1].max()) >= u_seed - 1e-9
