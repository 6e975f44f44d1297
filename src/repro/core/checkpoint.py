"""Crash-safe NSGA-II checkpoint/resume.

Paper-scale runs (hundreds of thousands of generations) are hours of
compute; a process kill must not lose them.  An :class:`EngineState`
captures everything the generational loop depends on:

* the full parent population — chromosomes *and* their evaluated
  objective vectors (so a resume never re-evaluates parents, which
  would shift the evaluation count);
* the RNG bit-generator state (so the resumed stochastic stream is the
  same stream, bit for bit);
* the generation and evaluation counters;
* the snapshots recorded so far plus the elapsed wall clock;
* the run parameters (generations, checkpoints, population size), so a
  checkpoint cannot silently resume under a different configuration.

A resumed run therefore produces a
:class:`~repro.core.nsga2.RunHistory` whose objective points are
bit-identical to an uninterrupted run with the same seed — asserted by
``tests/test_core_checkpoint.py``.

Durability is delegated to :mod:`repro.storage`: checkpoints are
written atomically (temp file + ``os.replace``) with payload checksums,
so a crash *during* checkpointing leaves the previous checkpoint
intact, and a corrupted file raises
:class:`~repro.errors.CorruptArtifactError` instead of resuming from
garbage.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
import time
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.algorithm import GenerationSnapshot
from repro.core.population import Population
from repro.errors import CheckpointError
from repro.storage import atomic_write_json, read_json_artifact
from repro.types import FloatArray, IntArray

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.algorithm import Algorithm
    from repro.obs.context import RunContext

__all__ = [
    "EngineState",
    "CheckpointStore",
    "capture_state",
    "restore_state",
]

#: Checkpoint document format tag; bump on incompatible changes.
CHECKPOINT_FORMAT = "repro.checkpoint/1"


@dataclass(frozen=True)
class EngineState:
    """A complete, resumable snapshot of one algorithm run in flight.

    ``algo_state`` carries whatever the algorithm's
    :meth:`~repro.core.algorithm.Algorithm._capture_algo_state` hook
    reported (MOEA/D's ideal point, the ε-archive's contents, ...);
    algorithms without auxiliary state leave it empty, which keeps the
    document byte-compatible with pre-redesign checkpoints.
    """

    label: str
    generation: int
    evaluations: int
    assignments: IntArray
    orders: IntArray
    energies: FloatArray
    utilities: FloatArray
    rng_state: dict
    snapshots: tuple[GenerationSnapshot, ...]
    elapsed_seconds: float
    run_params: Mapping[str, Any]
    algo_state: Mapping[str, Any] = field(default_factory=dict)

    # -- serialization -------------------------------------------------------

    def to_doc(self) -> dict:
        """JSON-serializable document (floats round-trip exactly)."""
        doc = {
            "format": CHECKPOINT_FORMAT,
            "label": self.label,
            "generation": self.generation,
            "evaluations": self.evaluations,
            "assignments": self.assignments.tolist(),
            "orders": self.orders.tolist(),
            "energies": self.energies.tolist(),
            "utilities": self.utilities.tolist(),
            "rng_state": self.rng_state,
            "snapshots": [_snapshot_to_doc(s) for s in self.snapshots],
            "elapsed_seconds": self.elapsed_seconds,
            "run_params": dict(self.run_params),
        }
        if self.algo_state:
            doc["algo_state"] = dict(self.algo_state)
        return doc

    @classmethod
    def from_doc(cls, doc: Any) -> "EngineState":
        """Rebuild a state from :meth:`to_doc` output.

        Raises :class:`~repro.errors.CheckpointError` on structural
        problems (wrong format tag, missing keys).
        """
        if not isinstance(doc, dict):
            raise CheckpointError(
                f"checkpoint document is {type(doc).__name__}, not an object"
            )
        if doc.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"unrecognized checkpoint format {doc.get('format')!r} "
                f"(expected {CHECKPOINT_FORMAT!r})"
            )
        try:
            return cls(
                label=doc["label"],
                generation=int(doc["generation"]),
                evaluations=int(doc["evaluations"]),
                assignments=np.asarray(doc["assignments"], dtype=np.int64),
                orders=np.asarray(doc["orders"], dtype=np.int64),
                energies=np.asarray(doc["energies"], dtype=np.float64),
                utilities=np.asarray(doc["utilities"], dtype=np.float64),
                rng_state=doc["rng_state"],
                snapshots=tuple(
                    _snapshot_from_doc(s) for s in doc["snapshots"]
                ),
                elapsed_seconds=float(doc["elapsed_seconds"]),
                run_params=doc["run_params"],
                # Absent in pre-redesign checkpoints: default to "no
                # auxiliary algorithm state".
                algo_state=doc.get("algo_state", {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint document is structurally malformed: {exc!r}"
            ) from exc


def _snapshot_to_doc(snap: GenerationSnapshot) -> dict:
    return {
        "generation": snap.generation,
        "evaluations": snap.evaluations,
        "front_points": snap.front_points.tolist(),
        "front_assignments": (
            None
            if snap.front_assignments is None
            else snap.front_assignments.tolist()
        ),
        "front_orders": (
            None if snap.front_orders is None else snap.front_orders.tolist()
        ),
    }


def _snapshot_from_doc(doc: dict) -> GenerationSnapshot:
    return GenerationSnapshot(
        generation=int(doc["generation"]),
        front_points=np.asarray(doc["front_points"], dtype=np.float64),
        front_assignments=(
            None
            if doc["front_assignments"] is None
            else np.asarray(doc["front_assignments"], dtype=np.int64)
        ),
        front_orders=(
            None
            if doc["front_orders"] is None
            else np.asarray(doc["front_orders"], dtype=np.int64)
        ),
        evaluations=int(doc["evaluations"]),
    )


# -- engine <-> state -----------------------------------------------------------


def capture_state(
    engine: "Algorithm",
    snapshots: Sequence[GenerationSnapshot],
    elapsed_seconds: float,
    run_params: Mapping[str, Any],
) -> EngineState:
    """Snapshot *engine* (and the run's bookkeeping) into an EngineState."""
    population = engine.population
    if not population.is_evaluated:
        raise CheckpointError(
            "cannot checkpoint an unevaluated population"
        )
    return EngineState(
        label=engine.label,
        generation=engine.generation,
        evaluations=engine._evaluations,
        assignments=population.assignments.astype(np.int64),
        orders=population.orders.astype(np.int64),
        energies=population.energies.copy(),
        utilities=population.utilities.copy(),
        rng_state=engine._rng.bit_generator.state,
        snapshots=tuple(snapshots),
        elapsed_seconds=float(elapsed_seconds),
        run_params=dict(run_params),
        algo_state=engine._capture_algo_state(),
    )


def restore_state(engine: "Algorithm", state: EngineState) -> None:
    """Overwrite *engine*'s mutable run state with *state*.

    The engine must have been constructed against the same problem
    (population size and task count are validated; the evaluator is
    trusted to match — objectives are restored, not recomputed).
    Auxiliary algorithm state flows through the engine's
    ``_restore_algo_state`` hook; ``_on_restore`` then invalidates any
    derived caches (e.g. NSGA-II's carried-over ranks).
    """
    expected = (engine.config.population_size, engine.feasible.num_tasks)
    if state.assignments.shape != expected:
        raise CheckpointError(
            f"checkpoint population shape {state.assignments.shape} does not "
            f"match the engine's {expected}"
        )
    engine.population = Population(
        assignments=state.assignments.copy(),
        orders=state.orders.copy(),
        energies=state.energies.copy(),
        utilities=state.utilities.copy(),
    )
    engine.generation = state.generation
    engine._evaluations = state.evaluations
    engine._restore_algo_state(dict(state.algo_state))
    engine._on_restore()
    try:
        engine._rng.bit_generator.state = state.rng_state
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint RNG state is incompatible with the engine's "
            f"bit generator: {exc!r}"
        ) from exc


# -- the on-disk store ----------------------------------------------------------


def _slug(label: str) -> str:
    """Filesystem-safe version of a population label."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", label) or "run"


class CheckpointStore:
    """One run's checkpoint file inside a shared checkpoint directory.

    Each labelled run owns a single file
    ``<directory>/<label>.checkpoint.json`` that is atomically replaced
    on every save — parallel populations checkpoint into the same
    directory without contention.

    When an enabled :class:`~repro.obs.context.RunContext` is attached,
    every save records a ``checkpoint.save`` span, the bytes written and
    fsync latency (from the :class:`~repro.storage.WriteReceipt`), and a
    ``checkpoint.committed`` event.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        label: str,
        *,
        obs: Optional["RunContext"] = None,
    ) -> None:
        self.directory = Path(directory)
        self.label = label
        self.path = self.directory / f"{_slug(label)}.checkpoint.json"
        if obs is None:
            from repro.obs.context import NULL_CONTEXT

            obs = NULL_CONTEXT
        self.obs = obs

    def exists(self) -> bool:
        """Whether a checkpoint for this label is on disk."""
        return self.path.exists()

    def save(self, state: EngineState) -> None:
        """Durably persist *state* (atomic replace + checksum)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        obs = self.obs
        if not obs.enabled:
            atomic_write_json(self.path, state.to_doc())
            return
        t0 = time.perf_counter()
        receipt = atomic_write_json(self.path, state.to_doc())
        seconds = time.perf_counter() - t0
        obs.record_span(
            "checkpoint.save",
            seconds,
            label=self.label,
            generation=state.generation,
            bytes=receipt.bytes_written,
        )
        obs.counter(
            "checkpoint_saves_total", help="checkpoint files committed"
        ).inc()
        obs.counter(
            "checkpoint_bytes_written_total",
            help="cumulative checkpoint payload size",
            unit="bytes",
        ).inc(receipt.bytes_written)
        obs.metrics.histogram(
            "checkpoint_fsync_seconds",
            help="time spent in fsync per checkpoint commit",
            unit="seconds",
        ).observe(receipt.fsync_seconds)
        obs.event(
            "checkpoint.committed",
            label=self.label,
            generation=state.generation,
            bytes=receipt.bytes_written,
            fsync_seconds=receipt.fsync_seconds,
        )

    def load(self) -> EngineState:
        """Load the checkpoint.

        Raises :class:`~repro.errors.CheckpointError` when no checkpoint
        exists and :class:`~repro.errors.CorruptArtifactError` when the
        file exists but fails its integrity check.
        """
        try:
            doc = read_json_artifact(self.path)
        except FileNotFoundError as exc:
            raise CheckpointError(
                f"no checkpoint for {self.label!r} at {self.path}"
            ) from exc
        return EngineState.from_doc(doc)

    def clear(self) -> None:
        """Delete the checkpoint file if present."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
