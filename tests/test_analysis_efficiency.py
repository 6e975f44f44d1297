"""Tests for the Figure 5 max utility-per-energy region method."""

import numpy as np
import pytest

from repro.analysis.efficiency import (
    marginal_utility_per_energy,
    max_utility_per_energy_region,
)
from repro.analysis.pareto_front import ParetoFront
from repro.errors import AnalysisError


def knee_front() -> ParetoFront:
    """A synthetic front with a clear knee at (2, 16).

    U/E: 5/1=5, 16/2=8, 18/3=6, 19/4=4.75, 19.5/5=3.9.
    """
    return ParetoFront.from_points(
        np.array(
            [
                [1.0, 5.0],
                [2.0, 16.0],
                [3.0, 18.0],
                [4.0, 19.0],
                [5.0, 19.5],
            ]
        )
    )


class TestRegion:
    def test_peak_located(self):
        region = max_utility_per_energy_region(knee_front())
        assert region.peak_energy == 2.0
        assert region.peak_utility == 16.0
        assert region.peak_ratio == pytest.approx(8.0)
        assert region.peak_index == 1

    def test_region_contiguous_around_peak(self):
        region = max_utility_per_energy_region(knee_front(), tolerance=0.3)
        # Threshold 5.6: points with ratio >= 5.6 around the peak are
        # indices 1 (8.0) and 2 (6.0); index 0 (5.0) excluded.
        np.testing.assert_array_equal(region.region_indices, [1, 2])

    def test_tight_tolerance_just_peak(self):
        region = max_utility_per_energy_region(knee_front(), tolerance=0.0)
        np.testing.assert_array_equal(region.region_indices, [1])

    def test_ratios_follow_points(self):
        f = knee_front()
        region = max_utility_per_energy_region(f)
        np.testing.assert_allclose(region.ratios, f.utilities / f.energies)

    def test_single_point_front(self):
        f = ParetoFront.from_points(np.array([[2.0, 4.0]]))
        region = max_utility_per_energy_region(f)
        assert region.peak_index == 0
        assert region.region_size == 1

    def test_validation(self):
        with pytest.raises(AnalysisError):
            max_utility_per_energy_region(knee_front(), tolerance=1.0)


class TestDiminishingReturns:
    def test_marginal_gains_fall_after_knee(self):
        """Left of the efficient region: large dU/dE; right: small —
        the paper's reading of the circled region."""
        marg = marginal_utility_per_energy(knee_front())
        # Gaps: 11, 2, 1, 0.5 per unit energy.
        np.testing.assert_allclose(marg, [11.0, 2.0, 1.0, 0.5])
        assert np.all(np.diff(marg) < 0)

    def test_region_on_figure_front(self, small_system, small_trace,
                                    small_evaluator):
        """On a real optimized front the peak lies strictly inside the
        energy range whenever the front is non-trivial."""
        from repro.core.algorithm import AlgorithmConfig
        from repro.core.nsga2 import NSGA2

        ga = NSGA2(small_evaluator, AlgorithmConfig(population_size=24), rng=5)
        hist = ga.run(30)
        front = ParetoFront(points=hist.final.front_points)
        region = max_utility_per_energy_region(front)
        assert front.energy_range[0] <= region.peak_energy <= front.energy_range[1]
        assert region.peak_ratio >= (front.utilities / front.energies).max() - 1e-12


class TestKneePoint:
    def test_knee_on_synthetic_front(self):
        from repro.analysis.efficiency import knee_point

        f = knee_front()
        # The sharp bend is at (2, 16).
        assert knee_point(f) == 1

    def test_single_point(self):
        from repro.analysis.efficiency import knee_point

        f = ParetoFront.from_points(np.array([[1.0, 1.0]]))
        assert knee_point(f) == 0

    def test_two_points_on_chord(self):
        from repro.analysis.efficiency import knee_point

        f = ParetoFront.from_points(np.array([[1.0, 1.0], [2.0, 2.0]]))
        assert knee_point(f) in (0, 1)

    def test_knee_index_in_range(self, small_system, small_trace,
                                 small_evaluator):
        from repro.analysis.efficiency import knee_point
        from repro.core.algorithm import AlgorithmConfig
        from repro.core.nsga2 import NSGA2

        ga = NSGA2(small_evaluator, AlgorithmConfig(population_size=20), rng=6)
        front = ParetoFront(points=ga.run(25).final.front_points)
        k = knee_point(front)
        assert 0 <= k < front.size
