"""Integration tests: observability wired through the real execution
stack.

The two load-bearing guarantees:

* **determinism** — enabling observability changes no optimization
  result: fronts, populations, and checkpoints (modulo wall-clock
  fields) are bit-identical with it on or off, including across a
  checkpoint resume;
* **fidelity** — an instrumented run emits schema-valid artifacts whose
  GA stage breakdown reconciles with the engine's own
  :class:`~repro.core.telemetry.StageTimings` within 1%.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.nsga2 import NSGA2, NSGA2Config
from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import dataset1
from repro.experiments.runner import RetryPolicy, run_seeded_populations
from repro.obs import RunContext, validate_run_dir
from repro.obs.report import load_run_dir, stage_totals, trace_report
from repro.sim.evaluator import ScheduleEvaluator
from repro.testing.faults import FaultPlan

CFG = ExperimentConfig(
    population_size=12, generations=4, checkpoints=(2, 4), base_seed=321
)
LABELS = ("min-energy", "random")


@pytest.fixture(scope="module")
def bundle():
    return dataset1(seed=321)


def _metric(metrics: dict, name: str) -> float:
    return metrics[name]["value"]


class TestDeterminism:
    def test_fronts_bit_identical_with_obs_on(self, bundle):
        dark = run_seeded_populations(bundle, CFG, labels=LABELS)
        obs = RunContext.create(level="debug")
        lit = run_seeded_populations(bundle, CFG, labels=LABELS, obs=obs)
        for label in LABELS:
            np.testing.assert_array_equal(
                dark.histories[label].final.front_points,
                lit.histories[label].final.front_points,
            )
            np.testing.assert_array_equal(
                dark.histories[label].final.front_assignments,
                lit.histories[label].final.front_assignments,
            )

    def test_checkpoints_bit_identical_with_obs_on(self, bundle, tmp_path):
        """Checkpoint payloads match byte-for-byte except wall-clock
        fields (elapsed_seconds), with observability on vs off."""
        run_seeded_populations(
            bundle, CFG, labels=("random",),
            checkpoint_dir=str(tmp_path / "dark"),
        )
        obs = RunContext.create(level="debug")
        run_seeded_populations(
            bundle, CFG, labels=("random",),
            checkpoint_dir=str(tmp_path / "lit"), obs=obs,
        )
        dark = json.loads(
            (tmp_path / "dark" / "random.checkpoint.json").read_text()
        )["payload"]
        lit = json.loads(
            (tmp_path / "lit" / "random.checkpoint.json").read_text()
        )["payload"]
        dark.pop("elapsed_seconds")
        lit.pop("elapsed_seconds")
        assert dark == lit

    def test_resume_with_obs_matches_uninterrupted_dark_run(
        self, bundle, tmp_path
    ):
        """Interrupt at generation 2 and resume — with observability
        enabled on both legs — and the final front equals a dark,
        uninterrupted run's."""
        dark = run_seeded_populations(bundle, CFG, labels=("random",))

        stop_at_2 = ExperimentConfig(
            population_size=12, generations=4, checkpoints=(2, 4),
            base_seed=321,
        )
        ckpt = str(tmp_path / "ckpt")
        # Batch call 1 evaluates the initial population; calls 2..5 are
        # generations 1..4 — crash at call 4 (generation 3), after the
        # generation-2 checkpoint is durable.
        plan = FaultPlan().crash("evaluate", at_call=4)
        obs = RunContext.create(level="debug")
        with pytest.raises(Exception):
            run_seeded_populations(
                bundle, stop_at_2, labels=("random",),
                checkpoint_dir=ckpt, retry=RetryPolicy(max_attempts=1),
                evaluation_fault_hook=plan.evaluation_hook(),
                strict=True, obs=obs,
            )
        obs2 = RunContext.create(level="debug")
        resumed = run_seeded_populations(
            bundle, stop_at_2, labels=("random",),
            checkpoint_dir=ckpt, resume=True, obs=obs2,
        )
        np.testing.assert_array_equal(
            dark.histories["random"].final.front_points,
            resumed.histories["random"].final.front_points,
        )
        events = [e["event"] for e in obs2.events.events]
        assert "run.resumed" in events


class TestInstrumentedRun:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        bundle = dataset1(seed=321)
        out = tmp_path_factory.mktemp("obs") / "run"
        obs = RunContext.create(obs_dir=out, run_id="itest", level="debug",
                                dataset=bundle.name)
        run_seeded_populations(
            bundle, CFG, labels=LABELS,
            checkpoint_dir=str(out.parent / "ckpt"), obs=obs,
        )
        obs.flush()
        return out

    def test_artifacts_schema_valid(self, run_dir):
        assert validate_run_dir(run_dir) == []

    def test_expected_spans_events_metrics_present(self, run_dir):
        data = load_run_dir(run_dir)
        span_names = {s["name"] for s in data["spans"]}
        assert {"ga.run", "ga.generation", "ga.initial_population",
                "evaluator.batch", "checkpoint.save", "seeding.build",
                "ga.stage.evaluate", "ga.stage_total.evaluate"} <= span_names
        event_names = {e["event"] for e in data["events"]}
        assert {"run.started", "run.finished", "generation.sampled",
                "checkpoint.committed"} <= event_names
        metrics = data["metrics"]
        assert _metric(metrics, "ga_generations_total") == 2 * CFG.generations
        assert _metric(metrics, "evaluator_chromosomes_total") > 0
        assert _metric(metrics, "checkpoint_bytes_written_total") > 0
        # Two populations, checkpointed every generation (4 each).
        assert metrics["checkpoint_fsync_seconds"]["count"] == 8
        assert metrics["evaluator_batch_seconds"]["count"] > 0
        assert _metric(metrics, "process_max_rss_bytes") > 0

    def test_stage_totals_reconcile_with_stage_timings(self, bundle):
        """The trace's aggregate stage spans equal the engine's own
        StageTimings (well within the 1% acceptance bound)."""
        evaluator = ScheduleEvaluator(bundle.system, bundle.trace,
                                      check_feasibility=False)
        obs = RunContext.create(level="info")
        ga = NSGA2(evaluator, NSGA2Config(population_size=12), rng=5,
                   obs=obs)
        ga.run(6)
        traced = stage_totals([s.to_doc() for s in obs.tracer.spans])
        assert set(traced) == set(ga.stage_timings.totals)
        for stage, (total, count) in traced.items():
            assert total == pytest.approx(
                ga.stage_timings.totals[stage], rel=0.01
            )
            assert count == ga.stage_timings.counts[stage] == 6

    def test_info_level_omits_per_generation_stage_spans(self, bundle):
        evaluator = ScheduleEvaluator(bundle.system, bundle.trace,
                                      check_feasibility=False)
        obs = RunContext.create(level="info")
        ga = NSGA2(evaluator, NSGA2Config(population_size=12), rng=6,
                   obs=obs)
        ga.run(3)
        names = [s.name for s in obs.tracer.spans]
        assert not any(n.startswith("ga.stage.") for n in names)
        assert any(n.startswith("ga.stage_total.") for n in names)
        assert names.count("ga.generation") == 3

    def test_trace_report_renders(self, run_dir):
        report = trace_report(run_dir)
        assert "itest" in report
        assert "GA stage breakdown" in report
        assert "evaluate" in report
        assert "checkpoint.committed" in report or "collapsed" in report


class TestFailureTelemetry:
    def test_retry_and_fault_events_recorded(self, bundle, tmp_path):
        obs = RunContext.create(level="debug")
        plan = FaultPlan().transient("random", failures=1).observe(obs)
        sleeps = []
        result = run_seeded_populations(
            bundle, CFG, labels=("random",),
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01),
            fault_hook=plan.on_attempt, sleep=sleeps.append, obs=obs,
        )
        assert "random" in result.histories
        events = [e["event"] for e in obs.events.events]
        assert "fault.injected" in events
        assert "retry.scheduled" in events
        metrics = obs.metrics.as_dict()
        assert _metric(metrics, "runner_retries_total") == 1
        assert _metric(metrics, "faults_injected_total") == 1

    def test_exhausted_population_records_failure(self, bundle):
        obs = RunContext.create(level="debug")
        plan = FaultPlan().crash("random").observe(obs)
        result = run_seeded_populations(
            bundle, CFG, labels=LABELS,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
            fault_hook=plan.on_attempt, sleep=lambda _s: None, obs=obs,
        )
        assert result.failed_labels == ("random",)
        events = [e["event"] for e in obs.events.events]
        assert "population.failed" in events
        assert _metric(obs.metrics.as_dict(), "runner_failures_total") == 1

    def test_fault_plan_obs_dropped_on_pickle(self):
        import pickle

        obs = RunContext.create()
        plan = FaultPlan(seed=3).crash("x").observe(obs)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone._obs is None
        assert [r.kind for r in clone.rules] == ["crash"]


class TestEvaluatorCacheMetrics:
    def test_evictions_counted(self, bundle):
        obs = RunContext.create()
        evaluator = ScheduleEvaluator(bundle.system, bundle.trace,
                                      check_feasibility=False,
                                      cache_size=8, obs=obs)
        ga = NSGA2(evaluator, NSGA2Config(population_size=12), rng=7,
                   obs=obs)
        ga.run(3)
        stats = evaluator.cache_stats
        # cache_size=8 leaves the smallest queue table (128 entries),
        # which three generations of data set 1 overflow.
        assert stats["evictions"] > 0
        metrics = obs.metrics.as_dict()
        assert (_metric(metrics, "evaluator_cache_evictions_total")
                == stats["evictions"])
        # Both are monotonic lifetime counters of queue-table traffic.
        assert _metric(metrics, "evaluator_cache_hits_total") == stats["hits"]
        assert (_metric(metrics, "evaluator_cache_misses_total")
                == stats["misses"])


class TestCliTrace:
    def test_cli_records_and_summarizes(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        code = main([
            "report", "--dataset", "1", "--scale", "0.0005",
            "--population", "12", "--seed", "321",
            "--obs-dir", str(obs_dir), "--obs-level", "debug",
        ])
        assert code == 0
        assert (obs_dir / "trace.jsonl").exists()
        capsys.readouterr()

        assert main(["trace", str(obs_dir), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "valid observability directory" in out

        assert main(["trace", str(obs_dir), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "GA stage breakdown" in out
        assert "slowest 3 spans" in out

    def test_cli_trace_bad_dir(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope")]) == 2
        assert "not an observability directory" in capsys.readouterr().err
