"""Tests for GenerationSnapshot/RunHistory accessors."""

import numpy as np
import pytest

from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2, GenerationSnapshot


@pytest.fixture
def history(small_evaluator):
    ga = NSGA2(small_evaluator, AlgorithmConfig(population_size=14), rng=77)
    return ga.run(6, checkpoints=[3, 6])


class TestSnapshotAccessors:
    def test_best_points(self, history):
        snap = history.final
        e_best = snap.best_energy_point()
        u_best = snap.best_utility_point()
        assert e_best[0] == snap.front_points[:, 0].min()
        assert u_best[1] == snap.front_points[:, 1].max()
        # Both are actual front points.
        assert any(np.allclose(p, e_best) for p in snap.front_points)
        assert any(np.allclose(p, u_best) for p in snap.front_points)

    def test_front_size(self, history):
        snap = history.final
        assert snap.front_size == snap.front_points.shape[0]

    def test_evaluations_monotone(self, history):
        evals = [s.evaluations for s in history.snapshots]
        assert evals == sorted(evals)

    def test_final_is_last(self, history):
        assert history.final is history.snapshots[-1]
        assert history.final.generation == history.total_generations

    def test_checkpoint_solutions_policy(self, history):
        """Intermediate checkpoints drop chromosomes by default; the
        final snapshot always carries them."""
        intermediate = history.snapshot_at(3)
        assert intermediate.front_assignments is None
        assert history.final.front_assignments is not None

    def test_store_front_solutions_flag(self, small_evaluator):
        ga = NSGA2(
            small_evaluator,
            AlgorithmConfig(population_size=14, store_front_solutions=True),
            rng=78,
        )
        hist = ga.run(4, checkpoints=[2, 4])
        assert hist.snapshot_at(2).front_assignments is not None

    def test_wall_seconds_positive(self, history):
        assert history.wall_seconds > 0
