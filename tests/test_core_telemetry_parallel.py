"""Tests for the telemetry recorder and the parallel population runner."""

import csv
import dataclasses
import time

import numpy as np
import pytest

from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.core.telemetry import (
    GenerationStats,
    StageTimings,
    TelemetryRecorder,
    compose,
)
from repro.errors import OptimizationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import dataset1
from repro.experiments.runner import run_seeded_populations


class TestTelemetry:
    def test_records_every_generation(self, small_evaluator):
        ga = NSGA2(small_evaluator, AlgorithmConfig(population_size=12), rng=1)
        pts, _ = ga.current_front()
        recorder = TelemetryRecorder(reference=(pts[:, 0].max() * 10, 0.0))
        ga.run(8, progress=recorder)
        assert len(recorder) == 8
        assert recorder.rows[0].generation == 1
        assert recorder.rows[-1].generation == 8

    def test_sampling_interval(self, small_evaluator):
        ga = NSGA2(small_evaluator, AlgorithmConfig(population_size=12), rng=2)
        pts, _ = ga.current_front()
        recorder = TelemetryRecorder(reference=(pts[:, 0].max() * 10, 0.0),
                                     every=3)
        ga.run(9, progress=recorder)
        assert [r.generation for r in recorder.rows] == [3, 6, 9]

    def test_hypervolume_series_nondecreasing(self, small_evaluator):
        ga = NSGA2(small_evaluator, AlgorithmConfig(population_size=12), rng=3)
        pts, _ = ga.current_front()
        recorder = TelemetryRecorder(reference=(pts[:, 0].max() * 10, 0.0))
        ga.run(15, progress=recorder)
        hv = recorder.series("hypervolume")
        assert np.all(np.diff(hv) >= -1e-9)

    def test_series_unknown_field(self, small_evaluator):
        ga = NSGA2(small_evaluator, AlgorithmConfig(population_size=12), rng=4)
        pts, _ = ga.current_front()
        recorder = TelemetryRecorder(reference=(pts[:, 0].max() * 10, 0.0))
        ga.run(2, progress=recorder)
        with pytest.raises(OptimizationError):
            recorder.series("nope")
        with pytest.raises(OptimizationError):
            TelemetryRecorder(reference=(1.0, 0.0)).series("hypervolume")

    def test_csv_export(self, small_evaluator, tmp_path):
        ga = NSGA2(small_evaluator, AlgorithmConfig(population_size=12), rng=5)
        pts, _ = ga.current_front()
        recorder = TelemetryRecorder(reference=(pts[:, 0].max() * 10, 0.0))
        ga.run(4, progress=recorder)
        path = tmp_path / "telemetry.csv"
        recorder.to_csv(path)
        rows = list(csv.reader(path.open()))
        assert rows[0][0] == "generation"
        assert len(rows) == 5

    def test_compose(self, small_evaluator):
        ga = NSGA2(small_evaluator, AlgorithmConfig(population_size=12), rng=6)
        pts, _ = ga.current_front()
        a = TelemetryRecorder(reference=(pts[:, 0].max() * 10, 0.0))
        seen = []
        ga.run(3, progress=compose(a, lambda gen, eng: seen.append(gen)))
        assert len(a) == 3 and seen == [1, 2, 3]
        with pytest.raises(OptimizationError):
            compose()

    def test_every_validation(self):
        with pytest.raises(OptimizationError):
            TelemetryRecorder(reference=(1.0, 0.0), every=0)

    def test_series_unknown_field_message_lists_dataclass_fields(self):
        """The error names every GenerationStats field, derived from
        dataclasses.fields (not __slots__)."""
        recorder = TelemetryRecorder(reference=(1.0, 0.0))
        recorder.rows.append(
            GenerationStats(
                generation=1, front_size=2, hypervolume=0.5,
                min_energy=1.0, max_utility=2.0, mean_energy=1.5,
                mean_utility=1.0, seconds_since_start=0.0,
            )
        )
        with pytest.raises(OptimizationError) as excinfo:
            recorder.series("does_not_exist")
        message = str(excinfo.value)
        for field in dataclasses.fields(GenerationStats):
            assert field.name in message

    def test_t0_anchored_at_construction(self, small_evaluator):
        """Pacing starts at construction, not lazily at the first
        callback — the column includes setup time before generation 1."""
        recorder = TelemetryRecorder(reference=(1e12, 0.0))
        anchor = recorder.started_at
        assert anchor <= time.perf_counter()
        ga = NSGA2(small_evaluator, AlgorithmConfig(population_size=12), rng=7)
        ga.run(2, progress=recorder)
        assert recorder.started_at == anchor  # never re-anchored
        assert all(r.seconds_since_start > 0.0 for r in recorder.rows)

    def test_explicit_start_survives_resume(self, small_evaluator):
        """A recorder rebuilt with the original epoch keeps one clock:
        its samples continue strictly after the pre-resume samples."""
        ga = NSGA2(small_evaluator, AlgorithmConfig(population_size=12), rng=8)
        first = TelemetryRecorder(reference=(1e12, 0.0))
        ga.run(2, progress=first)
        resumed = TelemetryRecorder(
            reference=(1e12, 0.0), start=first.started_at
        )
        assert resumed.started_at == first.started_at
        ga.run(4, progress=resumed)
        assert (
            resumed.rows[0].seconds_since_start
            > first.rows[-1].seconds_since_start
        )

    def test_stage_timings_as_dict_sorted(self):
        timings = StageTimings()
        for stage in ("variation", "selection", "evaluate", "environmental"):
            timings.record(stage, 0.5)
        assert list(timings.as_dict()) == sorted(timings.totals)
        assert timings.as_dict()["selection"]["count"] == 1

    def test_compose_is_fail_fast(self, small_evaluator):
        """A raising callback aborts that generation's remaining
        callbacks and propagates out of the run (documented contract)."""
        calls = []

        def first(gen, eng):
            calls.append(("first", gen))

        def boom(gen, eng):
            raise RuntimeError("telemetry sink exploded")

        def never(gen, eng):  # pragma: no cover - must not run
            calls.append(("never", gen))

        ga = NSGA2(small_evaluator, AlgorithmConfig(population_size=12), rng=9)
        with pytest.raises(RuntimeError, match="telemetry sink exploded"):
            ga.run(3, progress=compose(first, boom, never))
        assert calls == [("first", 1)]


class TestParallelRunner:
    CFG = ExperimentConfig(
        population_size=10, generations=3, checkpoints=(3,), base_seed=44
    )

    def test_parallel_matches_sequential(self):
        """Process-pool execution is bit-identical to in-process
        execution (RNG streams derive from config, not order)."""
        bundle = dataset1(seed=44)
        labels = ["min-energy", "random"]
        seq = run_seeded_populations(bundle, self.CFG, labels=labels, workers=0)
        par = run_seeded_populations(bundle, self.CFG, labels=labels, workers=2)
        for label in labels:
            np.testing.assert_array_equal(
                seq.histories[label].final.front_points,
                par.histories[label].final.front_points,
            )

    def test_single_worker_falls_back(self):
        bundle = dataset1(seed=44)
        result = run_seeded_populations(
            bundle, self.CFG, labels=["random"], workers=1
        )
        assert "random" in result.histories
