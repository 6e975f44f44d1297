"""Tests for tournament parent selection."""

import numpy as np
import pytest

from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.core.operators import OperatorConfig, binary_tournament_pairs
from repro.errors import OptimizationError


class TestBinaryTournament:
    def test_better_rank_always_wins(self):
        ranks = np.array([1, 5])
        crowding = np.array([0.0, 100.0])
        rng = np.random.default_rng(0)
        pairs = binary_tournament_pairs(ranks, crowding, 200, rng)
        # Whenever both candidates are drawn (0 vs 1), 0 must win; so
        # selected index 1 can appear only when both candidates were 1.
        # Statistically index 0 dominates the draw.
        frac0 = np.mean(pairs == 0)
        assert frac0 > 0.6

    def test_crowding_breaks_rank_ties(self):
        ranks = np.array([1, 1])
        crowding = np.array([0.5, 2.0])
        rng = np.random.default_rng(1)
        pairs = binary_tournament_pairs(ranks, crowding, 200, rng)
        frac1 = np.mean(pairs == 1)
        assert frac1 > 0.6

    def test_deterministic_under_seed(self):
        ranks = np.array([1, 2, 1, 3])
        crowding = np.array([1.0, 0.5, 2.0, 0.1])
        a = binary_tournament_pairs(ranks, crowding, 10, np.random.default_rng(3))
        b = binary_tournament_pairs(ranks, crowding, 10, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_shape(self):
        ranks = np.ones(8, dtype=np.int64)
        crowding = np.ones(8)
        pairs = binary_tournament_pairs(ranks, crowding, 4,
                                        np.random.default_rng(4))
        assert pairs.shape == (4, 2)
        assert pairs.min() >= 0 and pairs.max() < 8

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(OptimizationError):
            binary_tournament_pairs(
                np.ones(3, dtype=np.int64), np.ones(4), 2,
                np.random.default_rng(0),
            )


class TestEngineIntegration:
    def test_invalid_selection_name_rejected(self):
        with pytest.raises(OptimizationError):
            OperatorConfig(parent_selection="roulette")

    def test_tournament_engine_runs(self, small_evaluator):
        ga = NSGA2(
            small_evaluator,
            AlgorithmConfig(
                population_size=16,
                operators=OperatorConfig(parent_selection="tournament"),
            ),
            rng=5,
        )
        hist = ga.run(10)
        assert hist.total_generations == 10
        assert hist.final.front_size >= 1

    def test_tournament_differs_from_uniform(self, small_evaluator):
        def run(selection):
            ga = NSGA2(
                small_evaluator,
                AlgorithmConfig(
                    population_size=16,
                    operators=OperatorConfig(parent_selection=selection),
                ),
                rng=6,
            )
            return ga.run(10).final.front_points

        assert not np.array_equal(run("uniform"), run("tournament"))
