"""Per-generation telemetry for NSGA-II runs.

A :class:`TelemetryRecorder` is a progress callback (``run(...,
progress=recorder)``) that samples the engine every generation:
front size, hypervolume against a fixed reference, best/worst
objective values, and wall-clock pacing.  Rows export to CSV for
convergence plots finer-grained than the checkpoint snapshots.

Kept separate from the engine on purpose: the engine's loop stays
minimal, and recorders compose (wrap several with :func:`compose`).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.errors import OptimizationError
from repro.types import FloatArray

__all__ = ["GenerationStats", "StageTimings", "TelemetryRecorder", "compose"]


class StageTimings:
    """Accumulated wall-clock per named hot-loop stage.

    The engine records the duration of each generation stage
    (``selection`` / ``variation`` / ``evaluate`` / ``environmental``)
    into one of these; benchmarks and recorders read the aggregate.
    Overhead is two ``perf_counter`` calls and one dict update per
    stage per generation — negligible against the stages themselves.
    """

    __slots__ = ("totals", "counts")

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def record(self, stage: str, seconds: float) -> None:
        """Add one timed occurrence of *stage*."""
        self.totals[stage] = self.totals.get(stage, 0.0) + seconds
        self.counts[stage] = self.counts.get(stage, 0) + 1

    def mean_ms(self, stage: str) -> float:
        """Mean duration of *stage* in milliseconds (0.0 if never seen)."""
        count = self.counts.get(stage, 0)
        if count == 0:
            return 0.0
        return self.totals[stage] / count * 1000.0

    def as_dict(self) -> dict:
        """``{stage: {"total_s", "count", "mean_ms"}}`` for serialization.

        Keys are sorted by stage name so serialized timings are stable
        across runs (diff-friendly artifacts, deterministic JSON).
        """
        return {
            stage: {
                "total_s": self.totals[stage],
                "count": self.counts[stage],
                "mean_ms": self.mean_ms(stage),
            }
            for stage in sorted(self.totals)
        }

    def reset(self) -> None:
        """Drop all accumulated timings."""
        self.totals.clear()
        self.counts.clear()


@dataclass(frozen=True, slots=True)
class GenerationStats:
    """One sampled generation."""

    generation: int
    front_size: int
    hypervolume: float
    min_energy: float
    max_utility: float
    mean_energy: float
    mean_utility: float
    seconds_since_start: float


class TelemetryRecorder:
    """Progress callback recording per-generation statistics.

    Parameters
    ----------
    reference:
        Fixed hypervolume reference point (energy, utility), worse than
        anything reachable.
    every:
        Sample every this-many generations (1 = all).
    start:
        Epoch for ``seconds_since_start`` as a ``time.perf_counter()``
        value; defaults to construction time.  Pass the original
        recorder's ``started_at`` when rebuilding one mid-run (e.g.
        around a checkpoint resume) so the pacing column stays on one
        clock instead of silently re-anchoring at the first callback.
    """

    def __init__(
        self,
        reference: tuple[float, float],
        every: int = 1,
        start: Optional[float] = None,
    ) -> None:
        if every < 1:
            raise OptimizationError(f"every must be >= 1, got {every}")
        # Bound here rather than at module level: the engine imports
        # this module for StageTimings alone and should not carry the
        # analysis layer; a recorder is built before the run it samples.
        from repro.analysis.indicators import hypervolume

        self._hypervolume = hypervolume
        self.reference = reference
        self.every = every
        self.rows: list[GenerationStats] = []
        self._t0: float = time.perf_counter() if start is None else start

    @property
    def started_at(self) -> float:
        """The ``perf_counter`` epoch pacing is measured from."""
        return self._t0

    def __call__(self, generation: int, engine) -> None:
        """The progress-callback protocol: (generation, engine)."""
        if generation % self.every != 0:
            return
        pts, _ = engine.current_front()
        objectives = engine.population.objectives
        self.rows.append(
            GenerationStats(
                generation=generation,
                front_size=int(pts.shape[0]),
                hypervolume=self._hypervolume(pts, self.reference),
                min_energy=float(pts[:, 0].min()),
                max_utility=float(pts[:, 1].max()),
                mean_energy=float(objectives[:, 0].mean()),
                mean_utility=float(objectives[:, 1].mean()),
                seconds_since_start=time.perf_counter() - self._t0,
            )
        )

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def series(self, field: str) -> FloatArray:
        """One column across generations (e.g. ``"hypervolume"``)."""
        if not self.rows:
            raise OptimizationError("no telemetry recorded yet")
        try:
            return np.array([getattr(r, field) for r in self.rows])
        except AttributeError as exc:
            available = [f.name for f in fields(GenerationStats)]
            raise OptimizationError(
                f"unknown telemetry field {field!r}; available: {available}"
            ) from exc

    def to_csv(self, path: Union[str, Path]) -> None:
        """Write all rows as CSV."""
        names = [f.name for f in fields(GenerationStats)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            for row in self.rows:
                writer.writerow([getattr(row, f) for f in names])


def compose(*callbacks: Callable[[int, object], None]):
    """Combine several progress callbacks into one.

    Callbacks run in the order given and the combination is
    **fail-fast**: if one raises, the exception propagates to the
    engine's loop and the *remaining* callbacks are skipped for that
    generation.  A telemetry sink that should never abort a run must
    catch its own exceptions.
    """
    if not callbacks:
        raise OptimizationError("compose requires at least one callback")

    def combined(generation: int, engine) -> None:
        for callback in callbacks:
            callback(generation, engine)

    return combined
