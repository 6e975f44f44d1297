"""The online dispatch service loop (repro.service.dispatch)."""

from __future__ import annotations

import json
import weakref

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.obs.context import RunContext
from repro.service import ArrivalStream, DispatchService, ServiceConfig
from repro.service import dispatch as dispatch_module
from repro.workload.generator import TaskTypeMix


def stream_for(system, rate=0.15, window=80.0, seed=7):
    return ArrivalStream(
        mix=TaskTypeMix.uniform(system.num_task_types),
        window=window, rate=rate, seed=seed,
    )


def small_config(**overrides) -> ServiceConfig:
    base = dict(
        population_size=12, generations=4, carryover=6,
        compact_every=3, seed=17,
    )
    base.update(overrides)
    return ServiceConfig(**base)


class TestDispatchService:
    def test_chosen_point_matches_ledger(self, small_system):
        """The dispatched front point is service-cumulative: it equals
        the ledger's running totals (up to float summation order — the
        kernel folds per queue, the ledger sums per task)."""
        service = DispatchService(small_system, small_config())
        for batch in stream_for(small_system).windows(6):
            report = service.process_window(batch)
            if report.idle:
                continue
            assert report.chosen_energy == pytest.approx(
                service.ledger.total_energy, rel=1e-12
            )
            assert report.chosen_utility == pytest.approx(
                service.ledger.total_utility, rel=1e-12
            )

    def test_deterministic(self, small_system):
        def run():
            service = DispatchService(small_system, small_config())
            result = service.run(stream_for(small_system).windows(5))
            return result

        a, b = run(), run()
        assert a.tasks_dispatched == b.tasks_dispatched
        assert a.total_energy == b.total_energy
        assert a.total_utility == b.total_utility
        np.testing.assert_array_equal(a.archive_points, b.archive_points)
        for ra, rb in zip(a.reports, b.reports):
            assert ra.chosen_energy == rb.chosen_energy
            assert ra.chosen_utility == rb.chosen_utility
            assert ra.warm_seeds == rb.warm_seeds

    def test_warm_start_seeds_and_adopts(self, small_system):
        service = DispatchService(small_system, small_config())
        reports = [
            service.process_window(b)
            for b in stream_for(small_system, rate=0.2).windows(5)
        ]
        busy = [r for r in reports if not r.idle]
        assert len(busy) >= 3
        # Window 0 is necessarily cold; later windows carry seeds and
        # carry prefix state forward — except right after a compaction,
        # which starts a new ledger epoch.
        assert busy[0].warm_seeds == 0 and not busy[0].kernel_adopted
        assert busy[0].reuse_rate == 0.0
        assert all(r.warm_seeds > 0 for r in busy[1:])
        assert all(0.0 < r.reuse_rate < 1.0 for r in busy[1:])
        assert any(r.compacted for r in reports)
        fresh_epoch = True
        for r in reports:
            fresh_epoch |= r.compacted > 0
            if not r.idle:
                assert r.kernel_adopted == (not fresh_epoch)
                fresh_epoch = False

    def test_cold_mode_never_seeds(self, small_system):
        service = DispatchService(
            small_system, small_config(warm_start=False)
        )
        reports = [
            service.process_window(b)
            for b in stream_for(small_system).windows(4)
        ]
        assert all(r.warm_seeds == 0 for r in reports)

    def test_energy_budget_respected(self, small_system):
        """With a budget the dispatcher only exceeds it when even the
        min-energy point does — and then flags it."""
        free = DispatchService(small_system, small_config())
        free.run(stream_for(small_system).windows(4))
        budget = free.ledger.total_energy * 0.6

        service = DispatchService(
            small_system, small_config(energy_budget=budget)
        )
        for batch in stream_for(small_system).windows(4):
            report = service.process_window(batch)
            if report.idle:
                continue
            if not report.budget_exceeded:
                assert report.chosen_energy <= budget
            else:
                # The flagged window's choice is the front's min energy.
                assert report.chosen_energy == report.front_points[:, 0].min()

    def test_unconstrained_picks_max_utility(self, small_system):
        service = DispatchService(small_system, small_config())
        for batch in stream_for(small_system).windows(3):
            report = service.process_window(batch)
            if report.idle:
                continue
            assert report.chosen_utility == report.front_points[:, 1].max()
            assert not report.budget_exceeded

    def test_idle_windows_pass_through(self, small_system):
        service = DispatchService(
            small_system, small_config(), obs=None
        )
        result = service.run(stream_for(small_system, rate=0.0).windows(3))
        assert result.tasks_dispatched == 0
        assert all(r.idle for r in result.reports)
        assert result.archive_points.shape == (0, 2)
        assert result.dispatch_latency(99) == 0.0

    def test_windows_must_arrive_in_order(self, small_system):
        service = DispatchService(small_system, small_config())
        stream = stream_for(small_system)
        service.process_window(stream.batch(0))
        with pytest.raises(ScheduleError, match="in order"):
            service.process_window(stream.batch(2))

    def test_archive_front_is_nondominated(self, small_system):
        service = DispatchService(small_system, small_config())
        result = service.run(stream_for(small_system, rate=0.2).windows(5))
        front = result.archive_points
        assert front.shape[0] > 0
        # Sorted by energy; utility must strictly improve along the
        # front or the cheaper point would dominate.
        assert np.all(np.diff(front[:, 0]) >= 0)
        assert np.all(np.diff(front[:, 1]) > 0)

    def test_compaction_bounds_horizon(self, small_system):
        config = small_config(compact_every=2)
        service = DispatchService(small_system, config)
        result = service.run(stream_for(small_system, rate=0.25).windows(8))
        assert service.ledger.compacted_total > 0
        assert service.ledger.active < result.tasks_dispatched
        # Totals still cover every dispatched task.
        assert service.ledger.dispatched_total == result.tasks_dispatched

    def test_result_aggregates(self, small_system):
        service = DispatchService(small_system, small_config())
        result = service.run(stream_for(small_system, rate=0.2).windows(5))
        assert result.tasks_dispatched == sum(
            r.tasks for r in result.reports
        )
        assert result.tasks_per_second > 0
        assert result.mean_flow_time > 0
        assert result.dispatch_latency(50) <= result.dispatch_latency(99)
        assert result.objectives == (
            result.total_energy, result.total_utility
        )

    def test_invalid_config_rejected(self):
        with pytest.raises(ScheduleError):
            ServiceConfig(population_size=1)
        with pytest.raises(ScheduleError):
            ServiceConfig(generations=-1)
        with pytest.raises(ScheduleError):
            ServiceConfig(energy_budget=-5.0)
        with pytest.raises(ScheduleError):
            ServiceConfig(archive_epsilon_rel=0.0)


class TestWindowLifetime:
    def test_window_evaluator_freed_on_refcount(self, small_system,
                                                gc_disabled, monkeypatch):
        """Only a window's prefix state outlives it: every window's
        evaluator is freed on its reference count (cyclic garbage
        collection off) as soon as the window is dispatched, so
        per-window memory does not pile up."""
        refs = []

        class Recorded(dispatch_module.WindowEvaluator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(dispatch_module, "WindowEvaluator", Recorded)
        service = DispatchService(small_system, small_config())
        for batch in stream_for(small_system).windows(4):
            service.process_window(batch)
            assert all(ref() is None for ref in refs)
        assert refs
        assert service._prefix is not None


class TestServiceObservability:
    def test_metrics_and_spans_recorded(self, small_system, tmp_path):
        obs = RunContext.create(obs_dir=tmp_path, run_id="svc-test")
        service = DispatchService(small_system, small_config(), obs=obs)
        service.run(stream_for(small_system, rate=0.2).windows(4))
        obs.flush()

        metrics = json.loads((tmp_path / "metrics.json").read_text())
        for name in (
            "service_dispatch_seconds",
            "service_tasks_dispatched_total",
            "service_queue_depth",
            "service_throughput_tasks_per_second",
            "service_archive_size",
            "service_reuse_rate",
        ):
            assert name in metrics, name
        assert metrics["service_reuse_rate"]["value"] > 0
        # Queue depth is the ledger backlog, not the last window's size.
        assert metrics["service_queue_depth"]["value"] == service.ledger.active
        assert (metrics["service_queue_depth"]["value"]
                != service.reports[-1].tasks)

        spans = [
            json.loads(line)
            for line in (tmp_path / "trace.jsonl").read_text().splitlines()
        ]
        window_spans = [s for s in spans if s["name"] == "service.window"]
        assert len(window_spans) == 4
        assert any(
            s["attrs"].get("kernel_adopted") for s in window_spans
        )
        # Window evaluation files its own batch spans.
        batch_spans = [s for s in spans if s["name"] == "evaluator.batch"]
        assert batch_spans
        assert all(s["attrs"]["rows"] > 0 for s in batch_spans)
        assert any(s["attrs"]["reuse_rate"] > 0 for s in batch_spans)

    def test_window_batches_feed_evaluator_metrics(self, small_system,
                                                    tmp_path):
        """Windows evaluate through the instrumented evaluator: the
        chromosome counter sees every row, and each batch span's reuse
        rate is its window's committed share of the horizon."""
        obs = RunContext.create(obs_dir=tmp_path, run_id="svc-reuse")
        service = DispatchService(small_system, small_config(), obs=obs)
        shares = {}
        for batch in stream_for(small_system, rate=0.2).windows(6):
            report = service.process_window(batch)
            if report.tasks:
                # Compaction runs before the window's evaluator is built
                # and the commit after it.
                committed = service.ledger.active - batch.count
                shares[batch.index] = committed / (committed + batch.count)
                assert report.reuse_rate == shares[batch.index]
        obs.flush()
        assert any(share > 0 for share in shares.values())

        spans = [
            json.loads(line)
            for line in (tmp_path / "trace.jsonl").read_text().splitlines()
        ]
        # A window's span is filed after its batch spans.
        batches, by_window = [], {}
        for span in spans:
            if span["name"] == "evaluator.batch":
                batches.append(span["attrs"])
            elif span["name"] == "service.window":
                by_window[span["attrs"]["index"]] = batches
                batches = []
        assert set(index for index, b in by_window.items() if b) == set(shares)
        for index, share in shares.items():
            assert all(b["reuse_rate"] == share for b in by_window[index])

        metrics = json.loads((tmp_path / "metrics.json").read_text())
        rows = sum(b["rows"] for window in by_window.values() for b in window)
        assert rows > 0
        assert metrics["evaluator_chromosomes_total"]["value"] == rows

    def test_dispatch_decision_events(self, small_system, tmp_path):
        """One ``dispatch.decision`` event per busy window, carrying the
        chosen point and the rule that chose it."""
        stream = stream_for(small_system, rate=0.2)
        free = DispatchService(small_system, small_config())
        free.run(stream.windows(4))
        budget = free.ledger.total_energy * 0.6

        obs = RunContext.create(obs_dir=tmp_path, run_id="svc-decision")
        service = DispatchService(
            small_system, small_config(energy_budget=budget), obs=obs
        )
        service.run(stream.windows(4))
        obs.flush()
        events = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        decisions = [
            e["fields"] for e in events if e["event"] == "dispatch.decision"
        ]
        busy = [r for r in service.reports if not r.idle]
        assert len(decisions) == len(busy) > 0
        for event, report in zip(decisions, busy):
            assert event["window"] == report.index
            assert event["energy"] == report.chosen_energy
            assert event["utility"] == report.chosen_utility
            assert event["budget"] == budget
            assert event["budget_exceeded"] == report.budget_exceeded
            assert event["front_size"] == report.front_points.shape[0]
            assert event["rule"] == (
                "budget-fallback-min-energy" if report.budget_exceeded
                else "budget"
            )

        unconstrained = RunContext.create(run_id="svc-free")
        DispatchService(
            small_system, small_config(), obs=unconstrained
        ).run(stream.windows(2))
        rules = {
            e["fields"]["rule"] for e in unconstrained.events.events
            if e["event"] == "dispatch.decision"
        }
        assert rules == {"max-utility"}

    def test_dark_by_default(self, small_system):
        service = DispatchService(small_system, small_config())
        assert not service.obs.enabled
        service.run(stream_for(small_system).windows(2))
