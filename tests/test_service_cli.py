"""The ``repro serve`` console entry point (repro.service.cli)."""

from __future__ import annotations

import json

import pytest

from repro.service.cli import main


@pytest.fixture(scope="module")
def serve_report(tmp_path_factory):
    """One short synthetic serve run, shared by the assertions below."""
    out = tmp_path_factory.mktemp("serve") / "report.json"
    rc = main([
        "serve", "--dataset", "1", "--window", "120", "--windows", "3",
        "--arrival-rate", "0.05", "--population", "12",
        "--generations", "3", "--seed", "5",
        "--output", str(out),
    ])
    assert rc == 0
    return json.loads(out.read_text())


def test_report_structure(serve_report):
    assert len(serve_report["windows"]) == 3
    assert serve_report["tasks_dispatched"] == sum(
        w["tasks"] for w in serve_report["windows"]
    )
    for key in (
        "total_energy", "total_utility", "tasks_per_second",
        "dispatch_latency_p50_s", "dispatch_latency_p99_s",
        "mean_flow_time_s", "archive_front", "config",
    ):
        assert key in serve_report, key


def test_report_reuse_and_warmth(serve_report):
    busy = [w for w in serve_report["windows"] if w["tasks"]]
    assert any(w["warm_seeds"] > 0 for w in busy[1:])
    # Nothing is committed before the first busy window, so it serves
    # no element from prefix state and has none to carry.
    assert busy[0]["reuse_rate"] == 0.0 and not busy[0]["kernel_adopted"]
    assert all(0.0 < w["reuse_rate"] < 1.0 for w in busy[1:])
    assert all(w["kernel_adopted"] for w in busy[1:])


def test_config_echoed(serve_report):
    config = serve_report["config"]
    assert "kernel_method" not in config
    assert config["warm_start"] is True
    assert config["window"] == 120.0


def test_stdout_mode(capsys):
    rc = main([
        "serve", "--dataset", "1", "--window", "200", "--windows", "1",
        "--arrival-rate", "0.02", "--population", "12",
        "--generations", "2", "--seed", "9",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["windows"]) == 1


def test_trace_source(tmp_path):
    out = tmp_path / "trace-report.json"
    rc = main([
        "serve", "--dataset", "1", "--source", "trace",
        "--window", "300", "--windows", "2", "--population", "12",
        "--generations", "2", "--seed", "5", "--output", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["tasks_dispatched"] > 0
    assert payload["config"]["source"] == "trace"


def test_obs_dir_written(tmp_path):
    obs_dir = tmp_path / "obs"
    rc = main([
        "serve", "--dataset", "1", "--window", "200", "--windows", "2",
        "--arrival-rate", "0.03", "--population", "12",
        "--generations", "2", "--seed", "5",
        "--obs-dir", str(obs_dir), "--output", str(tmp_path / "r.json"),
    ])
    assert rc == 0
    metrics = json.loads((obs_dir / "metrics.json").read_text())
    assert "service_dispatch_seconds" in metrics
