"""Tests for convergence series and text reporting."""

import numpy as np
import pytest

from repro.analysis.convergence import (
    convergence_series,
    dominance_fraction,
    reference_front,
)
from repro.analysis.pareto_front import ParetoFront
from repro.analysis.report import (
    ascii_scatter,
    format_front,
    format_front_summary,
    format_table,
)
from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.errors import AnalysisError


@pytest.fixture
def two_histories(small_evaluator):
    h1 = NSGA2(small_evaluator, AlgorithmConfig(population_size=16), rng=1,
               label="a").run(10, checkpoints=[5, 10])
    h2 = NSGA2(small_evaluator, AlgorithmConfig(population_size=16), rng=2,
               label="b").run(10, checkpoints=[5, 10])
    return [h1, h2]


class TestConvergence:
    def test_reference_front_covers_all(self, two_histories):
        ref = reference_front(two_histories)
        for h in two_histories:
            for snap in h.snapshots:
                f = ParetoFront.from_points(snap.front_points)
                # Reference front is never dominated by any snapshot.
                assert ref.fraction_dominated_by(f) == 0.0

    def test_series_structure(self, two_histories):
        series = convergence_series(two_histories)
        assert len(series) == sum(len(h.snapshots) for h in two_histories)
        labels = {p.label for p in series}
        assert labels == {"a", "b"}
        for p in series:
            assert p.hypervolume >= 0
            assert p.igd_to_reference >= 0
            assert p.front_size > 0

    def test_hypervolume_nondecreasing_within_run(self, two_histories):
        series = convergence_series(two_histories)
        for label in ("a", "b"):
            pts = sorted(
                (p for p in series if p.label == label),
                key=lambda p: p.generation,
            )
            hv = [p.hypervolume for p in pts]
            assert hv == sorted(hv)

    def test_empty_histories_rejected(self):
        with pytest.raises(AnalysisError):
            convergence_series([])

    def test_dominance_fraction_raw_arrays(self):
        target = np.array([[2.0, 5.0], [3.0, 6.0]])
        by = np.array([[1.0, 9.0]])
        assert dominance_fraction(target, by) == 1.0
        assert dominance_fraction(by, target) == 0.0


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["col", "x"], [["a", 1], ["bbb", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_format_front(self):
        f = ParetoFront.from_points(np.array([[1e6, 5.0], [2e6, 8.0]]))
        text = format_front(f)
        assert "2 points" in text
        assert "1.0000" in text and "2.0000" in text

    def test_format_front_downsamples(self):
        pts = np.column_stack(
            [np.linspace(1e6, 2e6, 100), np.linspace(1, 100, 100)]
        )
        f = ParetoFront.from_points(pts)
        text = format_front(f, max_rows=10)
        assert len(text.splitlines()) <= 13

    def test_front_summary(self):
        fronts = {
            "x": ParetoFront.from_points(np.array([[1e6, 5.0], [2e6, 8.0]])),
        }
        text = format_front_summary(fronts)
        assert "x" in text and "peak-U/E" in text

    def test_ascii_scatter_renders_markers(self):
        series = {
            "a": np.array([[1e6, 1.0], [2e6, 2.0]]),
            "b": np.array([[1.5e6, 3.0]]),
        }
        plot = ascii_scatter(series, width=40, height=10)
        assert "o = a" in plot and "* = b" in plot
        assert "o" in plot.splitlines()[5] or any(
            "o" in line for line in plot.splitlines()
        )

    def test_ascii_scatter_validation(self):
        with pytest.raises(AnalysisError):
            ascii_scatter({})
        with pytest.raises(AnalysisError):
            ascii_scatter({"a": np.array([[1.0, 1.0]])}, width=5, height=5)
