"""Driver-level durable grids: skip-verified-done, drift, re-drive."""

import pytest

from repro.errors import ExperimentError, GridManifestError
from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import build_dataset, dataset1
from repro.experiments.grid import (
    GridBinding,
    front_to_payload,
    grid_status,
    render_status,
    resume_grid,
)
from repro.experiments.portfolio import run_portfolio
from repro.experiments.repetitions import run_repetitions
from repro.experiments.runner import run_seeded_populations
from repro.parallel.manifest import MANIFEST_NAME, GridManifest
from repro.parallel.resultstore import ResultStore
from repro.storage import atomic_write_json, read_json_artifact

REPS = dict(repetitions=3, generations=3, population_size=10)

_DRIVEN = []


def _count_cell(r, attempt):
    """Repetition fault hook used as a was-this-cell-driven probe."""
    _DRIVEN.append((r, attempt))


@pytest.fixture(autouse=True)
def _reset_probe():
    _DRIVEN.clear()


class TestRepetitionsGrid:
    def test_second_run_skips_verified_done_cells(self, tmp_path):
        grid_dir = str(tmp_path / "grid")
        first = run_repetitions(
            dataset1(), **REPS, grid_dir=grid_dir, fault_hook=_count_cell
        )
        assert sorted(r for r, _ in _DRIVEN) == [0, 1, 2]
        _DRIVEN.clear()
        again = run_repetitions(
            dataset1(), **REPS, grid_dir=grid_dir, fault_hook=_count_cell
        )
        assert _DRIVEN == []  # every cell preloaded from the store
        for a, b in zip(first.fronts, again.fronts):
            assert a.tobytes() == b.tobytes()

    def test_config_drift_rotates_manifest_and_recomputes(self, tmp_path):
        grid_dir = tmp_path / "grid"
        run_repetitions(dataset1(), **REPS, grid_dir=str(grid_dir))
        drifted = dict(REPS, generations=4)
        result = run_repetitions(
            dataset1(), **drifted, grid_dir=str(grid_dir),
            fault_hook=_count_cell,
        )
        # Every cell recomputed under the new config, none reused.
        assert sorted(r for r, _ in _DRIVEN) == [0, 1, 2]
        assert list(tmp_path.glob("grid/manifest.stale-*.jsonl"))
        clean = run_repetitions(dataset1(), **drifted)
        for a, b in zip(result.fronts, clean.fronts):
            assert a.tobytes() == b.tobytes()

    def test_tampered_result_artifact_is_re_driven(self, tmp_path):
        grid_dir = tmp_path / "grid"
        first = run_repetitions(dataset1(), **REPS, grid_dir=str(grid_dir))
        # Scribble over one stored result after its checksum was
        # journaled: the doctored payload must never be reused.
        manifest = GridManifest.load(grid_dir)
        store = ResultStore(grid_dir / "results", manifest.fingerprint)
        path = store.path_for(1)
        doc = read_json_artifact(path)
        doc["payload"]["front"][0][0] += 1.0
        atomic_write_json(path, doc)  # valid envelope, wrong content

        again = run_repetitions(
            dataset1(), **REPS, grid_dir=str(grid_dir),
            fault_hook=_count_cell,
        )
        assert sorted(set(r for r, _ in _DRIVEN)) == [1]  # only the bad cell
        for a, b in zip(first.fronts, again.fronts):
            assert a.tobytes() == b.tobytes()

    def test_torn_tail_mid_grid_is_recovered(self, tmp_path):
        grid_dir = tmp_path / "grid"
        first = run_repetitions(dataset1(), **REPS, grid_dir=str(grid_dir))
        path = grid_dir / MANIFEST_NAME
        path.write_bytes(path.read_bytes()[:-9])  # tear the last record
        status = grid_status(grid_dir)
        assert status.torn_tail
        again = run_repetitions(dataset1(), **REPS, grid_dir=str(grid_dir))
        for a, b in zip(first.fronts, again.fronts):
            assert a.tobytes() == b.tobytes()
        assert grid_status(grid_dir).complete


def write_legacy_repetitions_grid(grid_dir, legacy: dict):
    """A fully done repetitions grid as an older version journaled it:
    no ``spec_version``, plus the *legacy* keys.  Each stored front is
    doctored, so reusing any cell would show."""
    bundle = dataset1()
    spec = {
        "driver": "repetitions",
        "dataset": {"name": bundle.name, "seed": bundle.seed},
        "repetitions": REPS["repetitions"],
        "generations": REPS["generations"],
        "population_size": REPS["population_size"],
        "mutation_probability": 0.25,
        "seed_label": "random",
        "base_seed": 2013,
        "algorithm": "nsga2",
        **legacy,
    }
    keys = list(range(REPS["repetitions"]))
    binding = GridBinding.open_or_create(
        grid_dir, spec=spec, dataset=bundle, keys=keys,
    )
    for r in keys:
        binding.record_done(r, front_to_payload([[1.0 + r, 2.0]]))
    assert grid_status(grid_dir).complete


class TestSpecVersionRotation:
    @pytest.mark.parametrize(
        "legacy", [{"kernel_method": "fast"}, {}],
        ids=["spec-with-kernel-method", "pre-kernel-method-spec"],
    )
    @pytest.mark.parametrize("redrive", ["call", "resume"])
    def test_older_grid_is_invalidated_not_reused(self, tmp_path, legacy,
                                                  redrive):
        """A grid journaled under a spec that named a kernel, or under
        one older still (no kernel key, read as the retired ``fast``
        kernel), never feeds its cells to the current evaluator: the
        re-drive rotates the manifest and recomputes every cell."""
        grid_dir = tmp_path / "grid"
        write_legacy_repetitions_grid(grid_dir, legacy)
        if redrive == "call":
            result = run_repetitions(
                dataset1(), **REPS, grid_dir=str(grid_dir),
                fault_hook=_count_cell,
            )
            assert sorted(r for r, _ in _DRIVEN) == [0, 1, 2]
        else:
            result = resume_grid(grid_dir)
        assert list(tmp_path.glob("grid/manifest.stale-*.jsonl"))
        assert GridManifest.load(grid_dir).spec["spec_version"] == 2
        clean = run_repetitions(dataset1(), **REPS)
        for a, b in zip(result.fronts, clean.fronts):
            assert a.tobytes() == b.tobytes()


class TestResumeGrid:
    def test_resume_missing_grid_raises(self, tmp_path):
        with pytest.raises(GridManifestError, match="no grid manifest"):
            resume_grid(str(tmp_path / "nowhere"))

    def test_fingerprint_drift_is_refused(self, tmp_path):
        # A journal whose fingerprint no longer matches what the
        # recorded spec rebuilds must refuse to resume.
        spec = {
            "driver": "repetitions",
            "dataset": {"name": "dataset1", "seed": 2013},
            "repetitions": 2, "generations": 2, "population_size": 10,
            "mutation_probability": 0.25, "seed_label": "random",
            "base_seed": 2013, "algorithm": "nsga2",
        }
        GridManifest.create(
            tmp_path, spec=spec, fingerprint="stale-fingerprint",
            cells=[0, 1],
        )
        with pytest.raises(GridManifestError, match="drifted"):
            resume_grid(str(tmp_path))

    def test_unknown_driver_is_refused(self, tmp_path):
        GridManifest.create(
            tmp_path, spec={"driver": "warp"}, fingerprint="fp", cells=[0],
        )
        with pytest.raises(GridManifestError, match="unknown driver"):
            resume_grid(str(tmp_path))

    def test_status_renders_counts(self, tmp_path):
        grid_dir = tmp_path / "grid"
        run_repetitions(dataset1(), **REPS, grid_dir=str(grid_dir))
        status = grid_status(grid_dir)
        assert status.driver == "repetitions"
        assert status.counts["done"] == 3
        text = render_status(status)
        assert "grid is complete" in text
        assert "done" in text


class TestSeededPopulationsGrid:
    CFG = ExperimentConfig(
        population_size=10, generations=3, checkpoints=(1, 3)
    )
    LABELS = ["random", "min-min-completion-time"]

    def test_grid_run_matches_plain_run(self, tmp_path):
        grid_dir = str(tmp_path / "grid")
        gridded = run_seeded_populations(
            dataset1(), self.CFG, labels=self.LABELS, grid_dir=grid_dir,
        )
        plain = run_seeded_populations(
            dataset1(), self.CFG, labels=self.LABELS,
        )
        for label in self.LABELS:
            assert (
                gridded.histories[label].final.front_points.tobytes()
                == plain.histories[label].final.front_points.tobytes()
            )
        # Preloaded rerun agrees too, in the same label order.
        again = run_seeded_populations(
            dataset1(), self.CFG, labels=self.LABELS, grid_dir=grid_dir,
        )
        assert list(again.histories) == list(plain.histories)
        for label in self.LABELS:
            assert (
                again.histories[label].final.front_points.tobytes()
                == plain.histories[label].final.front_points.tobytes()
            )

    def test_resume_grid_re_enters_the_driver(self, tmp_path):
        grid_dir = str(tmp_path / "grid")
        run_seeded_populations(
            dataset1(), self.CFG, labels=self.LABELS, grid_dir=grid_dir,
        )
        result = resume_grid(grid_dir)
        assert set(result.histories) == set(self.LABELS)
        assert grid_status(grid_dir).complete

    def test_extra_seeds_are_rejected_with_grid(self, tmp_path):
        bundle = dataset1()
        with pytest.raises(ExperimentError, match="extra_seeds"):
            run_seeded_populations(
                bundle, self.CFG, labels=["random", "mine"],
                extra_seeds={"mine": []},
                grid_dir=str(tmp_path / "grid"),
            )


class TestPortfolioGrid:
    CFG = ExperimentConfig(
        population_size=10, generations=2, checkpoints=(2,)
    )

    def test_grid_run_matches_plain_and_skips_done(self, tmp_path):
        grid_dir = str(tmp_path / "grid")
        algorithms = ["nsga2", "spea2"]
        gridded = run_portfolio(
            dataset1(), self.CFG, algorithms=algorithms,
            exact_epsilon=None, grid_dir=grid_dir,
        )
        plain = run_portfolio(
            dataset1(), self.CFG, algorithms=algorithms, exact_epsilon=None,
        )
        resumed = resume_grid(grid_dir)
        for name in algorithms:
            expected = plain.histories[name].final.front_points.tobytes()
            assert (
                gridded.histories[name].final.front_points.tobytes()
                == expected
            )
            assert (
                resumed.histories[name].final.front_points.tobytes()
                == expected
            )
        assert grid_status(grid_dir).complete


class TestDatasetBuilders:
    def test_build_dataset_round_trips_names(self):
        bundle = build_dataset("dataset1", seed=2013)
        assert bundle.name == dataset1().name

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ExperimentError, match="unknown dataset"):
            build_dataset("dataset99")


class TestBindingEdges:
    def test_keys_absent_from_header_are_pending(self, tmp_path):
        bundle = dataset1()
        spec = {"driver": "test-edges"}
        binding = GridBinding.open_or_create(
            tmp_path, spec=spec, dataset=bundle, keys=[0, 1],
        )
        assert binding.pending_keys([0, 1]) == [0, 1]
        binding.record_done(0, {"v": 1})
        reopened = GridBinding.open_or_create(
            tmp_path, spec=spec, dataset=bundle, keys=[0, 1],
        )
        assert reopened.preloaded == {0: {"v": 1}}
        assert reopened.pending_keys([0, 1]) == [1]

    def test_failed_cells_requeue_on_reopen(self, tmp_path):
        bundle = dataset1()
        spec = {"driver": "test-edges"}
        binding = GridBinding.open_or_create(
            tmp_path, spec=spec, dataset=bundle, keys=[0],
        )
        binding.mark_running(0)
        binding.mark_failed(0, 1, RuntimeError("boom"))
        reopened = GridBinding.open_or_create(
            tmp_path, spec=spec, dataset=bundle, keys=[0],
        )
        assert reopened.pending_keys([0]) == [0]
        assert reopened.manifest.cells[0].requeues == 1

    def test_stale_lease_of_dead_owner_requeues(self, tmp_path):
        bundle = dataset1()
        spec = {"driver": "test-edges"}
        binding = GridBinding.open_or_create(
            tmp_path, spec=spec, dataset=bundle, keys=[0],
        )
        # Forge a lease held by a pid that cannot exist.
        binding.manifest.mark_leased(0, 1, owner=2 ** 22 + 1)
        reopened = GridBinding.open_or_create(
            tmp_path, spec=spec, dataset=bundle, keys=[0],
        )
        assert reopened.pending_keys([0]) == [0]
