"""Tests for the one-shot reproduction driver."""

import json

import pytest

from repro.experiments.reproduce import reproduce_all


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("reproduction")
    messages = []
    reproduce_all(
        out,
        scale=0.00002,  # single-digit generations: structure test only
        base_seed=5,
        population_size=12,
        progress=messages.append,
    )
    return out, messages


class TestReproduceAll:
    def test_all_artifacts_written(self, artifacts):
        out, _ = artifacts
        expected = {
            "MANIFEST.txt",
            "tables.txt",
            "figure1.txt",
            "figure2.txt",
            "figure5.txt",
        }
        names = {p.name for p in out.iterdir()}
        assert expected <= names
        for fig in ("figure3", "figure4", "figure6"):
            assert f"{fig}.json" in names
            assert f"{fig}.csv" in names
            assert f"{fig}.txt" in names
            assert any(n.startswith(f"{fig}_subplot") for n in names)

    def test_manifest_mentions_scale_and_seed(self, artifacts):
        out, _ = artifacts
        manifest = (out / "MANIFEST.txt").read_text()
        assert "scale: 2e-05" in manifest
        assert "base seed: 5" in manifest
        assert "total wall time" in manifest

    def test_manifest_records_timing_context(self, artifacts):
        """Each figure's wall time, the worker count and the CPU count,
        so a recorded reproduction time says what it ran on."""
        out, _ = artifacts
        lines = (out / "MANIFEST.txt").read_text().splitlines()
        assert any(line.startswith("workers: 0 (CPUs: ") for line in lines)
        for fig in ("figure3", "figure4", "figure6"):
            (line,) = [x for x in lines if x.startswith(f"{fig}.json")]
            assert "; wall time " in line and line.endswith(" s")

    def test_progress_reported(self, artifacts):
        _, messages = artifacts
        assert any("figure3" in m for m in messages)
        assert any(m.startswith("done") for m in messages)

    def test_figure_json_loadable(self, artifacts):
        out, _ = artifacts
        from repro.experiments.io import load_figure_result

        result = load_figure_result(out / "figure3.json")
        assert result.name == "figure3"
        assert set(result.result.histories) == {
            "min-energy",
            "min-min-completion-time",
            "max-utility",
            "max-utility-per-energy",
            "random",
        }

    def test_tables_content(self, artifacts):
        out, _ = artifacts
        text = (out / "tables.txt").read_text()
        assert "Table I" in text and "Table III" in text
        assert "AMD A8-3870K" in text

    def test_figure1_spot_checks_in_text(self, artifacts):
        out, _ = artifacts
        text = (out / "figure1.txt").read_text()
        assert "U(20)=12" in text and "U(47)=7" in text

    def test_silent_mode(self, tmp_path):
        reproduce_all(
            tmp_path / "quiet",
            scale=0.00002,
            base_seed=6,
            population_size=12,
            progress=None,
        )
        assert (tmp_path / "quiet" / "MANIFEST.txt").exists()


class TestClaimsAudit:
    def test_claims_files_written(self, artifacts):
        out, _ = artifacts
        for fig in ("figure3", "figure4", "figure6"):
            text = (out / f"{fig}_claims.txt").read_text()
            assert "min-energy-owns-low-end" in text
            assert "PASS" in text

    def test_manifest_records_claim_counts(self, artifacts):
        out, _ = artifacts
        manifest = (out / "MANIFEST.txt").read_text()
        assert "claims" in manifest and "PASS" in manifest
