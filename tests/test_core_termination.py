"""Tests for termination criteria and NSGA2.run_until."""

import numpy as np
import pytest

from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.core.termination import (
    AnyOf,
    HypervolumeStagnation,
    MaxEvaluations,
    MaxGenerations,
    MaxWallClock,
    TerminationContext,
)
from repro.errors import OptimizationError


def ctx(generation=0, evaluations=0, elapsed=0.0, front=None):
    if front is None:
        front = np.array([[1.0, 1.0]])
    return TerminationContext(
        generation=generation,
        evaluations=evaluations,
        elapsed_seconds=elapsed,
        front_points=front,
    )


class TestCriteria:
    def test_max_generations(self):
        c = MaxGenerations(5)
        assert not c.should_stop(ctx(generation=4))
        assert c.should_stop(ctx(generation=5))

    def test_max_evaluations(self):
        c = MaxEvaluations(100)
        assert not c.should_stop(ctx(evaluations=99))
        assert c.should_stop(ctx(evaluations=100))

    def test_max_wall_clock(self):
        c = MaxWallClock(1.0)
        assert not c.should_stop(ctx(elapsed=0.5))
        assert c.should_stop(ctx(elapsed=1.5))

    def test_any_of(self):
        c = AnyOf([MaxGenerations(10), MaxEvaluations(50)])
        assert not c.should_stop(ctx(generation=5, evaluations=40))
        assert c.should_stop(ctx(generation=5, evaluations=60))
        assert c.should_stop(ctx(generation=10, evaluations=10))

    def test_validation(self):
        with pytest.raises(OptimizationError):
            MaxGenerations(-1)
        with pytest.raises(OptimizationError):
            MaxEvaluations(0)
        with pytest.raises(OptimizationError):
            MaxWallClock(0.0)
        with pytest.raises(OptimizationError):
            AnyOf([])
        with pytest.raises(OptimizationError):
            HypervolumeStagnation(window=0, reference=(1.0, 0.0))


class TestStagnation:
    def test_stops_on_flat_front(self):
        c = HypervolumeStagnation(window=3, reference=(10.0, 0.0),
                                  min_generations=0)
        front = np.array([[1.0, 5.0]])
        stops = [c.should_stop(ctx(generation=g, front=front)) for g in range(6)]
        # First call establishes the best; next three stall; 4th stalled
        # call fires.
        assert True in stops
        assert stops.index(True) == 3

    def test_improvement_resets(self):
        c = HypervolumeStagnation(window=2, reference=(10.0, 0.0),
                                  min_generations=0)
        assert not c.should_stop(ctx(generation=0, front=np.array([[1.0, 5.0]])))
        assert not c.should_stop(ctx(generation=1, front=np.array([[1.0, 5.0]])))
        # Improvement: larger utility.
        assert not c.should_stop(ctx(generation=2, front=np.array([[1.0, 7.0]])))
        assert not c.should_stop(ctx(generation=3, front=np.array([[1.0, 7.0]])))
        assert c.should_stop(ctx(generation=4, front=np.array([[1.0, 7.0]])))

    def test_min_generations_respected(self):
        c = HypervolumeStagnation(window=1, reference=(10.0, 0.0),
                                  min_generations=5)
        front = np.array([[1.0, 5.0]])
        for g in range(5):
            assert not c.should_stop(ctx(generation=g, front=front))
        assert c.should_stop(ctx(generation=5, front=front))

    def test_reset(self):
        c = HypervolumeStagnation(window=1, reference=(10.0, 0.0),
                                  min_generations=0)
        front = np.array([[1.0, 5.0]])
        c.should_stop(ctx(generation=0, front=front))
        c.should_stop(ctx(generation=1, front=front))
        c.reset()
        assert not c.should_stop(ctx(generation=0, front=front))


class TestRunUntil:
    def test_stops_at_generation_budget(self, small_evaluator):
        ga = NSGA2(small_evaluator, AlgorithmConfig(population_size=12), rng=0)
        hist = ga.run_until(MaxGenerations(7))
        assert hist.total_generations == 7
        assert hist.final.front_assignments is not None

    def test_stops_at_evaluation_budget(self, small_evaluator):
        ga = NSGA2(small_evaluator, AlgorithmConfig(population_size=10), rng=1)
        hist = ga.run_until(MaxEvaluations(55))
        # init 10 + 5 generations x 10 = 60 >= 55 (fires after gen 5).
        assert hist.total_evaluations == 60

    def test_periodic_snapshots(self, small_evaluator):
        ga = NSGA2(small_evaluator, AlgorithmConfig(population_size=10), rng=2)
        hist = ga.run_until(MaxGenerations(6), snapshot_every=2)
        gens = [s.generation for s in hist.snapshots]
        assert gens == [2, 4, 6]

    def test_stagnation_terminates_before_bound(self, small_evaluator):
        ga = NSGA2(small_evaluator, AlgorithmConfig(population_size=12), rng=3)
        pts, _ = ga.current_front()
        ref = (float(pts[:, 0].max() * 10), 0.0)
        hist = ga.run_until(
            HypervolumeStagnation(window=5, reference=ref, min_generations=5),
            max_generations=500,
        )
        assert hist.total_generations < 500
