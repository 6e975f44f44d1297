"""Experiment configuration and generation-count scaling.

The paper runs the NSGA-II for up to 1,000,000 generations.  The
benchmark harness keeps the same checkpoint *structure* but scales the
counts so the suite completes on a laptop; setting the environment
variable ``REPRO_SCALE=1`` restores paper-scale runs (see DESIGN.md,
substitution table).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import ExperimentError

__all__ = ["ExperimentConfig", "SPEC_VERSION", "scaled_checkpoints",
           "default_scale"]

#: Version of the evaluation semantics a spec records.  Version 2 is
#: the single batch-kernel evaluator.  Specs without the key predate it:
#: they named a kernel or, older still, implied the retired ``fast``
#: one.  Their grids' fingerprints therefore differ, and their cells
#: are rotated aside instead of mixed with current results.
SPEC_VERSION = 2

#: Scale applied to paper checkpoint generation counts when the caller
#: does not override it.  0.002 maps the paper's (100, 1e3, 1e4, 1e5)
#: onto (1, 2, 20, 200) — enough for convergence ordering to emerge
#: while keeping each figure bench in seconds.
_DEFAULT_SCALE = 0.002


def default_scale() -> float:
    """The generation scale: ``REPRO_SCALE`` env var or the default."""
    raw = os.environ.get("REPRO_SCALE")
    if raw is None:
        return _DEFAULT_SCALE
    try:
        value = float(raw)
    except ValueError as exc:
        raise ExperimentError(f"REPRO_SCALE={raw!r} is not a number") from exc
    if value <= 0:
        raise ExperimentError(f"REPRO_SCALE must be positive, got {value}")
    return value


def scaled_checkpoints(
    paper_checkpoints: Sequence[int], scale: Optional[float] = None
) -> list[int]:
    """Scale the paper's checkpoint generations, keeping them distinct.

    Each checkpoint becomes ``max(1, round(c × scale))``; duplicates
    collapsing after rounding are pushed apart so every paper
    checkpoint still has its own snapshot.
    """
    s = default_scale() if scale is None else scale
    if s <= 0:
        raise ExperimentError(f"scale must be positive, got {s}")
    out: list[int] = []
    for c in paper_checkpoints:
        if c <= 0:
            raise ExperimentError(f"paper checkpoint must be positive, got {c}")
        v = max(1, int(round(c * s)))
        if out and v <= out[-1]:
            v = out[-1] + 1
        out.append(v)
    return out


@dataclass(frozen=True, slots=True, kw_only=True)
class ExperimentConfig:
    """Parameters of one seeded-population experiment.

    Keyword-only: every field must be named at the call site.

    Attributes
    ----------
    population_size:
        Population size N (paper example: 100).
    mutation_probability:
        Per-offspring mutation probability.
    generations:
        Total generations (== last checkpoint).
    checkpoints:
        Snapshot generations (ascending, last == generations).
    base_seed:
        Master seed; per-population streams are derived from it.
    algorithm:
        Which optimizer runs the experiment — a name registered in
        :data:`repro.core.registry.ALGORITHMS` (``"nsga2"``,
        ``"nsga2-ss"``, ``"spea2"``, ``"moead"``, ``"eps-archive"``).
        A plain string so the choice travels to parallel pool workers
        inside pickled cell extras.
    """

    population_size: int = 100
    mutation_probability: float = 0.25
    generations: int = 200
    checkpoints: tuple[int, ...] = (1, 2, 20, 200)
    base_seed: int = 2013
    algorithm: str = "nsga2"

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ExperimentError(
                f"population_size must be >= 2, got {self.population_size}"
            )
        if not self.checkpoints:
            raise ExperimentError("at least one checkpoint is required")
        if list(self.checkpoints) != sorted(set(self.checkpoints)):
            raise ExperimentError(
                f"checkpoints must be strictly increasing; got {self.checkpoints}"
            )
        if self.checkpoints[-1] != self.generations:
            raise ExperimentError(
                f"last checkpoint {self.checkpoints[-1]} must equal "
                f"generations {self.generations}"
            )

    def to_spec(self) -> dict:
        """JSON-ready dict of every result-determining knob.

        Used by the grid manifest's fingerprint: any field change —
        one more generation, a nudged mutation probability, a different
        optimizer — yields a different spec, hence a different grid
        fingerprint, hence stale cells that are invalidated instead of
        silently reused.
        """
        return {
            "spec_version": SPEC_VERSION,
            "population_size": self.population_size,
            "mutation_probability": self.mutation_probability,
            "generations": self.generations,
            "checkpoints": list(self.checkpoints),
            "base_seed": self.base_seed,
            "algorithm": self.algorithm,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_spec` output (grid re-drive).

        Keys of older spec versions are ignored: the rebuilt config's
        spec is current, so re-driving an older grid rotates it."""
        return cls(
            population_size=spec["population_size"],
            mutation_probability=spec["mutation_probability"],
            generations=spec["generations"],
            checkpoints=tuple(spec["checkpoints"]),
            base_seed=spec["base_seed"],
            algorithm=spec.get("algorithm", "nsga2"),
        )

    def algorithm_config(self):
        """The engine-level config this experiment config implies.

        Collapses the knobs previously duplicated between
        ``NSGA2Config`` and driver kwargs into one
        :class:`~repro.core.algorithm.AlgorithmConfig`.
        """
        from repro.core.algorithm import AlgorithmConfig

        return AlgorithmConfig(
            population_size=self.population_size,
            mutation_probability=self.mutation_probability,
        )

    @classmethod
    def for_paper_checkpoints(
        cls,
        paper_checkpoints: Sequence[int],
        scale: Optional[float] = None,
        population_size: int = 100,
        mutation_probability: float = 0.25,
        base_seed: int = 2013,
        algorithm: str = "nsga2",
    ) -> "ExperimentConfig":
        """Config with scaled versions of the paper's checkpoints."""
        cps = scaled_checkpoints(paper_checkpoints, scale)
        return cls(
            population_size=population_size,
            mutation_probability=mutation_probability,
            generations=cps[-1],
            checkpoints=tuple(cps),
            base_seed=base_seed,
            algorithm=algorithm,
        )
