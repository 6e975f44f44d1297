"""Durable, resumable experiment grids (the ``repro grid`` verbs).

This module binds the passive machinery of
:mod:`repro.parallel.manifest` (the append-only lifecycle journal) and
:mod:`repro.parallel.resultstore` (content-addressed per-cell
artifacts) to the actual experiment drivers:

* :class:`GridBinding` — what a driver holds while running a journaled
  grid: the manifest, the store, the reconciliation pass that turns a
  half-finished journal back into "these cells are verified done, skip
  them; these were in flight when the coordinator died, re-drive them",
  and the hook bundle wired into the engine's supervision layer.
* :func:`grid_status` / :func:`render_status` — the ``repro grid
  status`` view: lifecycle counts, quarantined cells with their crash
  evidence, journal-damage indicators.
* :func:`resume_grid` — the ``repro grid resume`` workflow: sweep dead
  coordinators' shared-memory segments, replay the manifest, rebuild
  the dataset from the journaled spec, **verify its fingerprint**
  (config drift between incarnations is refused, not absorbed), and
  re-enter the recorded driver to finish exactly the cells that never
  completed.  Because every cell's RNG stream is derived from the
  config seed — never from execution order, worker count, or wall
  clock — a resumed grid's results are byte-identical to an
  uninterrupted run's (chaos-drill tested).

Determinism contract: the grid fingerprint covers only
result-determining inputs (config knobs, algorithm, seed policy,
dataset content).  Execution parameters — worker count, transport,
retry policy — are deliberately excluded: they may differ between
incarnations without invalidating completed cells.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Hashable, Optional, Sequence, Union

import numpy as np

from repro.errors import (
    ExperimentError,
    GridManifestError,
    classify_failure,
)
from repro.parallel.manifest import (
    MANIFEST_NAME,
    GridManifest,
    WorkerJournal,
)
from repro.parallel.resultstore import (
    ResultStore,
    dataset_fingerprint,
    grid_fingerprint,
)
from repro.types import FloatArray

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.datasets import DatasetBundle
    from repro.obs.context import RunContext

__all__ = [
    "GridBinding",
    "GridStatus",
    "grid_status",
    "render_status",
    "resume_grid",
    "front_to_payload",
    "front_from_payload",
]

#: Crashes (on >= 2 distinct workers) before a cell is quarantined.
DEFAULT_QUARANTINE_AFTER = 3

#: How long a resuming coordinator waits for a still-live lease holder
#: (a straggler worker of a dead coordinator, finishing its last cell)
#: to exit before refusing to take the grid over.
DEFAULT_SETTLE_SECONDS = 30.0


# -- front payload round-trip -------------------------------------------------


def front_to_payload(front: FloatArray) -> dict:
    """JSON-ready payload of one final front.

    Float64 → shortest-repr JSON → float64 is exact, so a front read
    back from the store is byte-identical to the one written — the
    foundation of the resumed-equals-uninterrupted guarantee.
    """
    arr = np.asarray(front, dtype=np.float64)
    return {"front": arr.tolist(), "shape": list(arr.shape)}


def front_from_payload(payload: dict) -> FloatArray:
    """Rebuild a front array from :func:`front_to_payload` output."""
    return np.asarray(payload["front"], dtype=np.float64).reshape(
        payload["shape"]
    )


# -- the driver-side binding --------------------------------------------------


@dataclass
class GridBinding:
    """A running driver's handle on its durable grid.

    Construct via :meth:`open_or_create`; afterwards ``preloaded``
    holds the verified-complete cells' payloads (skip them),
    ``pending_keys`` filters the work list, ``run_kwargs`` /
    ``worker_journal`` wire the engine's supervision hooks, and
    ``record_done`` persists each fresh result.
    """

    manifest: GridManifest
    store: ResultStore
    quarantine_after: int = DEFAULT_QUARANTINE_AFTER
    preloaded: dict = field(default_factory=dict)
    quarantined_now: list = field(default_factory=list)

    @classmethod
    def open_or_create(
        cls,
        grid_dir: Union[str, Path],
        *,
        spec: dict,
        dataset: "DatasetBundle",
        keys: Sequence[Hashable],
        obs: Optional["RunContext"] = None,
        quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
        settle_seconds: float = DEFAULT_SETTLE_SECONDS,
    ) -> "GridBinding":
        """Load a matching manifest at *grid_dir*, or start a fresh one.

        An existing manifest is adopted only when its fingerprint —
        :func:`~repro.parallel.resultstore.grid_fingerprint` over
        *spec* and the dataset's content — matches the configuration
        being driven; otherwise it is stale (config drift) and is
        rotated aside, so cells computed under different physics are
        invalidated, never silently reused.
        """
        grid_dir = Path(grid_dir)
        ds_fp = dataset_fingerprint(dataset)
        fingerprint = grid_fingerprint(spec, ds_fp)
        manifest: Optional[GridManifest] = None
        if (grid_dir / MANIFEST_NAME).exists():
            try:
                loaded = GridManifest.load(grid_dir, obs=obs)
            except GridManifestError:
                loaded = None  # unreadable header: start over below
            if loaded is not None and loaded.fingerprint == fingerprint:
                manifest = loaded
                manifest.note_resumed()
        if manifest is None:
            manifest = GridManifest.create(
                grid_dir,
                spec=spec,
                fingerprint=fingerprint,
                cells=list(keys),
                obs=obs,
            )
        binding = cls(
            manifest=manifest,
            store=ResultStore(grid_dir / "results", fingerprint),
            quarantine_after=quarantine_after,
        )
        binding._reconcile(obs=obs, settle_seconds=settle_seconds)
        return binding

    def _reconcile(
        self,
        *,
        obs: Optional["RunContext"] = None,
        settle_seconds: float = DEFAULT_SETTLE_SECONDS,
    ) -> None:
        """Turn the replayed journal into a runnable work list.

        ``done`` cells are verified against the store under the
        checksum journaled at completion — a missing, corrupt, drifted,
        or checksum-mismatched artifact re-queues the cell instead of
        reusing it.  ``leased``/``running`` cells whose holder is gone
        are abandoned leases from a dead incarnation: re-queued (after
        giving a still-live straggler up to *settle_seconds* to exit).
        ``failed`` cells were mid-retry: re-queued.  ``quarantined``
        cells stay parked.
        """
        manifest = self.manifest
        skipped = 0
        for key in manifest.cells_in("done"):
            payload = self.store.get(
                key, expected_checksum=manifest.cells[key].checksum
            )
            if payload is None:
                manifest.requeue(key)
                if obs is not None and obs.enabled:
                    obs.event(
                        "grid.cell.invalidated", level="warning",
                        cell=key, reason="result failed verification",
                    )
            else:
                self.preloaded[key] = payload
                skipped += 1
        deadline = time.time() + settle_seconds
        for key in manifest.cells_in("leased", "running"):
            if manifest.cells[key].owner == os.getpid():
                # Journaled by this very pid: an earlier incarnation in
                # this process (or a recycled pid).  We *are* the only
                # coordinator here, and we are not driving that cell —
                # the lease is abandoned by definition.
                manifest.requeue(key)
                continue
            while not manifest.cells[key].lease_is_stale():
                if time.time() >= deadline:
                    status = manifest.cells[key]
                    raise GridManifestError(
                        f"cell {key!r} is {status.state} under live process "
                        f"{status.owner} — is another coordinator still "
                        "driving this grid?"
                    )
                time.sleep(0.2)
            manifest.requeue(key)
        for key in manifest.cells_in("failed"):
            manifest.requeue(key)
        if obs is not None and obs.enabled and skipped:
            obs.counter(
                "grid_cells_skipped_total",
                help="verified-complete cells skipped on resume",
            ).inc(skipped)

    # -- work-list and hook wiring ----------------------------------------

    def pending_keys(self, keys: Sequence[Hashable]) -> list:
        """The subset of *keys* that still needs driving, in order."""
        terminal = ("done", "quarantined")
        return [
            key
            for key in keys
            if key not in self.preloaded
            and self.manifest.cells[key].state not in terminal
        ]

    def quarantined_keys(self) -> list:
        """Cells currently parked in quarantine."""
        return self.manifest.cells_in("quarantined")

    def worker_journal(self) -> WorkerJournal:
        """The heartbeat appender for the engine's pool initializer."""
        return self.manifest.worker_journal()

    def run_kwargs(self) -> dict:
        """Supervision hooks for :meth:`ParallelEngine.run`."""
        manifest = self.manifest

        def on_submit(key: Hashable, attempt: int) -> None:
            manifest.mark_leased(key, attempt)

        def on_failure(
            key: Hashable,
            attempt: int,
            exc: BaseException,
            owner: Optional[int],
        ) -> None:
            manifest.mark_failed(
                key,
                attempt,
                kind=classify_failure(exc),
                error=f"{type(exc).__name__}: {exc}",
                owner=owner,
            )

        def on_quarantine(
            key: Hashable, attempt: int, owners: frozenset
        ) -> None:
            manifest.mark_quarantined(key, attempt, owners)
            self.quarantined_now.append(key)

        return {
            "on_submit": on_submit,
            "on_failure": on_failure,
            "on_quarantine": on_quarantine,
            "quarantine_after": self.quarantine_after,
            "poll_running": manifest.poll_running,
        }

    # -- serial-path journaling --------------------------------------------

    def mark_running(self, key: Hashable, attempt: int = 1) -> None:
        """Journal an in-process execution start (serial driver path)."""
        self.manifest.mark_running(key, attempt)

    def mark_failed(
        self, key: Hashable, attempt: int, exc: BaseException
    ) -> None:
        """Journal a serial-path failure with its taxonomy kind."""
        self.manifest.mark_failed(
            key,
            attempt,
            kind=classify_failure(exc),
            error=f"{type(exc).__name__}: {exc}",
        )

    def record_done(self, key: Hashable, payload: Any) -> None:
        """Persist *payload* and journal the ``done`` transition."""
        checksum = self.store.put(key, payload)
        status = self.manifest.cells.get(key)
        attempt = status.attempt if status is not None and status.attempt else 1
        self.manifest.mark_done(key, attempt, checksum)


# -- status ------------------------------------------------------------------


@dataclass(frozen=True)
class GridStatus:
    """The ``repro grid status`` snapshot of one grid directory."""

    grid_id: str
    driver: str
    fingerprint: str
    counts: dict
    quarantined: tuple
    torn_tail: bool
    damaged_records: int

    @property
    def total(self) -> int:
        """Cells enumerated by the manifest."""
        return sum(self.counts.values())

    @property
    def complete(self) -> bool:
        """Whether every cell reached ``done``."""
        return self.counts.get("done", 0) == self.total


def grid_status(
    grid_dir: Union[str, Path], obs: Optional["RunContext"] = None
) -> GridStatus:
    """Replay *grid_dir*'s manifest into a :class:`GridStatus`."""
    manifest = GridManifest.load(grid_dir, obs=obs)
    quarantined = []
    for key in manifest.cells_in("quarantined"):
        status = manifest.cells[key]
        quarantined.append(
            {
                "cell": key,
                "attempt": status.attempt,
                "crashes": len(
                    [f for f in status.failures
                     if f.get("kind") == "worker-death"]
                ),
                "distinct_workers": len(status.crash_owners),
                "failures": list(status.failures),
            }
        )
    return GridStatus(
        grid_id=manifest.grid_id,
        driver=str(manifest.spec.get("driver", "?")),
        fingerprint=manifest.fingerprint,
        counts=manifest.status_counts(),
        quarantined=tuple(quarantined),
        torn_tail=manifest.torn_tail,
        damaged_records=manifest.damaged_records,
    )


def render_status(status: GridStatus) -> str:
    """*status* as the aligned text block the CLI prints."""
    lines = [
        f"grid {status.grid_id} ({status.driver}) — "
        f"fingerprint {status.fingerprint}",
        f"cells: {status.total}",
    ]
    for state, count in status.counts.items():
        if count:
            lines.append(f"  {state:<12} {count}")
    if status.torn_tail:
        lines.append("journal: torn tail record repaired on load")
    if status.damaged_records:
        lines.append(
            f"journal: {status.damaged_records} damaged record(s) skipped"
        )
    for q in status.quarantined:
        lines.append(
            f"quarantined cell {q['cell']!r}: {q['crashes']} worker "
            f"crash(es) across {q['distinct_workers']} distinct worker(s) — "
            "fix the input or re-drive with 'grid retry-quarantined'"
        )
    if status.complete:
        lines.append("grid is complete")
    return "\n".join(lines)


# -- resume ------------------------------------------------------------------


def resume_grid(
    grid_dir: Union[str, Path],
    *,
    workers: int = 0,
    transport: str = "auto",
    retry=None,
    retry_quarantined: bool = False,
    obs: Optional["RunContext"] = None,
):
    """Finish an interrupted grid: the ``repro grid resume`` workflow.

    Sweeps shared-memory segments stranded by dead coordinators,
    replays the manifest, re-queues quarantined cells when
    *retry_quarantined* is set, rebuilds the dataset and config from
    the journaled spec, and re-enters the recorded driver — which
    skips verified-done cells and re-drives the rest.  Returns the
    driver's normal result object (:class:`~repro.experiments.\
repetitions.RepetitionResult`, :class:`~repro.experiments.runner.\
SeededPopulationResult`, or :class:`~repro.experiments.portfolio.\
PortfolioResult`).

    Execution parameters (*workers*, *transport*, *retry*) are the
    resuming incarnation's choice — they are not part of the grid's
    identity and may differ from the original run without affecting
    results.
    """
    from repro.experiments.datasets import build_dataset
    from repro.parallel import shm as shm_transport

    swept = shm_transport.janitor_sweep()
    if obs is not None and obs.enabled and swept:
        obs.event(
            "grid.janitor_sweep", level="warning",
            segments=list(swept),
        )
    manifest = GridManifest.load(grid_dir, obs=obs)
    spec = manifest.spec
    driver = spec.get("driver")
    if driver not in ("repetitions", "seeded-populations", "portfolio"):
        raise GridManifestError(
            f"manifest records unknown driver {driver!r}; cannot re-drive"
        )
    if retry_quarantined:
        for key in manifest.cells_in("quarantined"):
            manifest.requeue(key)
    dataset_spec = spec.get("dataset", {})
    dataset = build_dataset(
        dataset_spec.get("name", ""), seed=dataset_spec.get("seed", 2013)
    )
    expected = grid_fingerprint(spec, dataset_fingerprint(dataset))
    if expected != manifest.fingerprint:
        raise GridManifestError(
            f"rebuilt dataset/config fingerprint {expected} does not match "
            f"the journaled {manifest.fingerprint} — the code or data "
            "generating this grid drifted since it was started; results "
            "would not be comparable.  Start a fresh grid directory."
        )

    if driver == "repetitions":
        from repro.experiments.repetitions import run_repetitions

        return run_repetitions(
            dataset,
            repetitions=spec["repetitions"],
            generations=spec["generations"],
            population_size=spec["population_size"],
            mutation_probability=spec["mutation_probability"],
            seed_label=spec["seed_label"],
            base_seed=spec["base_seed"],
            workers=workers,
            transport=transport,
            retry=retry,
            algorithm=spec.get("algorithm", "nsga2"),
            grid_dir=grid_dir,
            obs=obs,
        )
    if driver == "seeded-populations":
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_seeded_populations

        return run_seeded_populations(
            dataset,
            ExperimentConfig.from_spec(spec["config"]),
            labels=list(spec["labels"]),
            workers=workers,
            transport=transport,
            retry=retry,
            grid_dir=grid_dir,
            resume=True,
            obs=obs,
        )
    if driver == "portfolio":
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.portfolio import run_portfolio

        return run_portfolio(
            dataset,
            ExperimentConfig.from_spec(spec["config"]),
            algorithms=list(spec["algorithms"]),
            exact_epsilon=spec.get("exact_epsilon"),
            workers=workers,
            transport=transport,
            retry=retry,
            grid_dir=grid_dir,
            obs=obs,
        )
    raise AssertionError(f"unreachable driver {driver!r}")
