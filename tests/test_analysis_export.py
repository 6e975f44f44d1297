"""Tests for CSV/SVG export and gantt rendering."""

import csv

import numpy as np
import pytest

from repro.analysis.export import (
    front_to_csv,
    figure_to_csv,
    figure_to_svg,
    render_svg_scatter,
)
from repro.analysis.pareto_front import ParetoFront
from repro.errors import AnalysisError, ScheduleError
from repro.sim.evaluator import ScheduleEvaluator
from repro.sim.gantt import (
    GanttEntry,
    gantt_entries,
    machine_timeline,
    render_gantt,
)

from conftest import random_allocation


def gantt_of(system, trace, seed):
    alloc = random_allocation(system, trace, seed=seed)
    return gantt_entries(
        alloc, ScheduleEvaluator(system, trace).evaluate(alloc),
        trace.arrival_times,
    )


@pytest.fixture(scope="module")
def small_figure():
    from repro.experiments.figures import figure3

    return figure3(checkpoints=[2, 4], population_size=12, base_seed=9)


class TestCSV:
    def test_front_csv(self, tmp_path):
        front = ParetoFront.from_points(
            np.array([[1e6, 5.0], [2e6, 8.0]]), label="x"
        )
        path = tmp_path / "front.csv"
        front_to_csv(front, path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["population", "energy_joules", "utility"]
        assert len(rows) == 3
        assert rows[1][0] == "x"
        assert float(rows[1][1]) == 1e6

    def test_figure_csv_roundtrips_points(self, tmp_path, small_figure):
        path = tmp_path / "fig.csv"
        figure_to_csv(small_figure, path)
        rows = list(csv.reader(path.open()))[1:]
        total_points = sum(
            s.front_points.shape[0]
            for h in small_figure.result.histories.values()
            for s in h.snapshots
        )
        assert len(rows) == total_points
        labels = {r[0] for r in rows}
        assert "min-energy" in labels and "random" in labels
        # Exact float round-trip via repr.
        e0 = small_figure.result.histories["min-energy"].snapshots[0].front_points[0, 0]
        assert any(float(r[2]) == e0 for r in rows)


class TestSVG:
    def test_valid_svg_with_legend(self):
        svg = render_svg_scatter(
            {"a": np.array([[1e6, 2.0], [2e6, 3.0]]),
             "b": np.array([[1.5e6, 4.0]])},
            title="demo",
        )
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "demo" in svg
        assert svg.count("<circle") >= 2  # series 'a' markers
        assert ">a</text>" in svg and ">b</text>" in svg

    def test_degenerate_single_point(self):
        svg = render_svg_scatter({"a": np.array([[1e6, 2.0]])})
        assert "<svg" in svg

    def test_validation(self):
        with pytest.raises(AnalysisError):
            render_svg_scatter({})
        with pytest.raises(AnalysisError):
            render_svg_scatter({"a": np.empty((0, 2))})
        with pytest.raises(AnalysisError):
            render_svg_scatter({"a": np.array([[1.0, 2.0]])}, width=50, height=50)

    def test_figure_to_svg_writes_subplots(self, tmp_path, small_figure):
        paths = figure_to_svg(small_figure, tmp_path)
        assert len(paths) == len(small_figure.checkpoints)
        for p in paths:
            text = p.read_text()
            assert text.startswith("<svg")
            assert "min-energy" in text


class TestGantt:
    def test_render_structure(self, tiny_system, tiny_trace):
        gantt = gantt_of(tiny_system, tiny_trace, seed=1)
        chart = render_gantt(gantt, system=tiny_system, width=60)
        lines = chart.splitlines()
        machines_used = {e.machine for e in gantt}
        assert len(lines) == len(machines_used) + 2  # rows + ruler + legend
        assert "time" in lines[-2]
        assert "idle awaiting arrival" in lines[-1]

    def test_task_cells_present(self, tiny_system, tiny_trace):
        gantt = gantt_of(tiny_system, tiny_trace, seed=2)
        chart = render_gantt(gantt, width=80)
        # Every executed task's letter appears somewhere.
        for e in gantt:
            ch = "abcdefghijklmnopqrstuvwxyz0123456789"[e.task % 36]
            assert ch in chart

    def test_machine_timeline_sorted(self, small_system, small_trace):
        gantt = gantt_of(small_system, small_trace, seed=3)
        tl = machine_timeline(gantt, 0)
        starts = [e.start for e in tl]
        assert starts == sorted(starts)

    @pytest.mark.parametrize("makespan", [3.3, 0.7, 100.0, 1911.25])
    def test_ruler_marks_land_on_quarter_columns(self, makespan):
        # 3.3 and 0.7 are makespans at which makespan * 3/4 / makespan
        # rounds below 0.75, which once drew the 3/4 mark at column 74.
        gantt = [GanttEntry(task=0, machine=0, start=0.0, finish=makespan,
                            idle_before=0.0)]
        ruler = render_gantt(gantt, width=100).splitlines()[-2]
        cells = ruler[ruler.index("|") + 1:-1]
        assert [c for c, ch in enumerate(cells) if ch == "+"] == [
            0, 25, 50, 75, 99
        ]

    def test_validation(self, tiny_system, tiny_trace):
        gantt = gantt_of(tiny_system, tiny_trace, seed=4)
        with pytest.raises(ScheduleError):
            render_gantt(gantt, width=5)
