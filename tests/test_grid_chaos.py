"""Chaos drill: kill a worker and the coordinator; resume; compare.

The durable-grid acceptance test.  A grid run that loses a pool worker
to SIGKILL, and a grid run whose *coordinator* is SIGKILL'd mid-sweep
and then re-driven with ``repro grid resume``, must both end with
fronts byte-identical to an uninterrupted run — and leave no
shared-memory segments behind.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.experiments.datasets import dataset1
from repro.experiments.grid import grid_status, resume_grid
from repro.experiments.repetitions import run_repetitions
from repro.parallel import shm
from repro.parallel.manifest import GridManifest

REPS = dict(repetitions=4, generations=3, population_size=10)

#: This checkout's ``src/``: the coordinator subprocess must import the
#: code under test, not whichever ``repro`` the working directory holds.
SRC = Path(__file__).resolve().parent.parent / "src"


def _kill_r1_first_attempt(r, attempt):
    """Repetition cell fault hook: SIGKILL the worker once, on cell 1."""
    if r == 1 and attempt == 1:
        os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture(scope="module")
def clean_fronts():
    return [f.tobytes() for f in run_repetitions(dataset1(), **REPS).fronts]


class TestWorkerChaos:
    def test_worker_sigkill_mid_grid_is_survived(self, tmp_path, clean_fronts):
        leaked_before = set(shm.leaked_segments())
        grid_dir = tmp_path / "grid"
        result = run_repetitions(
            dataset1(), **REPS, workers=2, grid_dir=str(grid_dir),
            fault_hook=_kill_r1_first_attempt,
        )
        # Byte-identical to the uninterrupted serial run.
        assert [f.tobytes() for f in result.fronts] == clean_fronts
        # The journal shows the crash and the recovery.
        loaded = GridManifest.load(grid_dir)
        assert loaded.cells[1].state == "done"
        assert any(
            f["kind"] == "worker-death" for f in loaded.cells[1].failures
        ) or loaded.cells[1].attempt >= 2
        assert grid_status(grid_dir).complete
        # No shared-memory segments were stranded.
        assert set(shm.leaked_segments()) <= leaked_before


class TestChaosTelemetry:
    def test_done_cells_keep_worker_lineage_through_worker_kill(
        self, tmp_path, clean_fronts
    ):
        """Every ``done`` cell of a SIGKILL-drilled grid is attributable:
        the merged trace holds a worker-stamped ``cell.run`` span for it,
        parented under the coordinator's ``grid.run`` span — and the
        telemetry changes nothing about the recovered fronts."""
        from repro.obs import RunContext, validate_run_dir
        from repro.obs.distributed import CELL_SPAN_NAME, GRID_SPAN_NAME

        grid_dir = tmp_path / "grid"
        obs = RunContext.create(obs_dir=grid_dir / "obs", run_id="chaos")
        result = run_repetitions(
            dataset1(), **REPS, workers=2, grid_dir=str(grid_dir),
            fault_hook=_kill_r1_first_attempt, obs=obs,
        )
        obs.flush()
        assert [f.tobytes() for f in result.fronts] == clean_fronts

        merged = grid_dir / "obs" / "merged"
        assert validate_run_dir(merged) == []
        spans = [
            json.loads(line)
            for line in (merged / "trace.jsonl").read_text().splitlines()
            if line.strip()
        ]
        grid_spans = [s for s in spans if s["name"] == GRID_SPAN_NAME]
        assert len(grid_spans) == 1
        cell_spans = [
            s for s in spans
            if s["name"] == CELL_SPAN_NAME
            and s["parent_id"] == grid_spans[0]["span_id"]
        ]
        for span in cell_spans:
            assert span["attrs"].get("worker")  # worker attribution
        covered = {s["attrs"]["cell"] for s in cell_spans}
        for key in GridManifest.load(grid_dir).cells_in("done"):
            assert key in covered
        # The SIGKILL'd attempt can leave no closed span; the cell's
        # lineage comes from the retry on a fresh worker.
        retried = [s for s in cell_spans if s["attrs"]["cell"] == 1]
        assert retried
        assert any(s["attrs"]["attempt"] >= 2 for s in retried)


class TestCoordinatorChaos:
    def test_coordinator_sigkill_then_resume_bit_identical(
        self, tmp_path, clean_fronts
    ):
        grid_dir = tmp_path / "grid"
        script = textwrap.dedent(
            """
            import sys, time
            from pathlib import Path

            import repro
            from repro.experiments.datasets import dataset1
            from repro.experiments.repetitions import run_repetitions

            Path(sys.argv[2]).write_text(repro.__file__)

            def slow(r, attempt):
                time.sleep(0.4)

            run_repetitions(
                dataset1(), repetitions=4, generations=3,
                population_size=10, grid_dir=sys.argv[1], fault_hook=slow,
            )
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        imported_from = tmp_path / "repro_file.txt"
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(grid_dir), str(imported_from)],
            cwd=SRC.parent, env=env,
        )
        try:
            # Wait for at least one completed cell, then kill -9.
            results_dir = grid_dir / "results"
            deadline = time.time() + 60.0
            while time.time() < deadline:
                if results_dir.is_dir() and list(results_dir.glob("*.json")):
                    break
                if proc.poll() is not None:
                    pytest.fail("coordinator finished before it was killed")
                time.sleep(0.05)
            else:
                pytest.fail("no cell completed within 60s")
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # The coordinator ran this checkout's code.
        assert Path(imported_from.read_text()).resolve().is_relative_to(SRC)

        # The grid is genuinely half-finished.
        interrupted = grid_status(grid_dir)
        assert 0 < interrupted.counts["done"] < interrupted.total

        # Resume in this process (parallel, for good measure): the
        # surviving cells are verified and skipped, the rest re-driven.
        resumed = resume_grid(str(grid_dir), workers=2)
        assert [f.tobytes() for f in resumed.fronts] == clean_fronts
        assert grid_status(grid_dir).complete
