"""Multi-repetition experiments with statistical aggregation.

One NSGA-II run per population (the paper's protocol) is a single
sample; this module runs R independent repetitions — each with a
derived seed governing both the initial population and the operator
stream — and aggregates:

* per-repetition final fronts;
* best / median / worst empirical attainment surfaces;
* hypervolume mean / standard deviation / min / max against a common
  reference point.

Used by the statistics example and available for paper-scale studies.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from repro.analysis.attainment import attainment_summary
from repro.analysis.indicators import hypervolume
from repro.analysis.pareto_front import ParetoFront
from repro.core.algorithm import AlgorithmConfig
from repro.core.registry import AlgorithmFactory, make_algorithm
from repro.errors import ExperimentError
from repro.experiments.cells import CellSpec, run_cells
from repro.experiments.config import SPEC_VERSION
from repro.experiments.datasets import DatasetBundle
from repro.experiments.runner import RetryPolicy
from repro.heuristics import SEEDING_HEURISTICS
from repro.obs.context import NULL_CONTEXT, RunContext
from repro.rng import derive_seed
from repro.types import FloatArray

__all__ = ["HypervolumeStats", "RepetitionResult", "run_repetitions"]


@dataclass(frozen=True)
class HypervolumeStats:
    """Summary statistics of final-front hypervolume over repetitions."""

    mean: float
    std: float
    minimum: float
    maximum: float
    reference: tuple[float, float]

    @classmethod
    def from_fronts(
        cls, fronts: Sequence[FloatArray], reference: tuple[float, float]
    ) -> "HypervolumeStats":
        """Compute stats of *fronts* against *reference*."""
        values = np.array([hypervolume(f, reference) for f in fronts])
        return cls(
            mean=float(values.mean()),
            std=float(values.std()),
            minimum=float(values.min()),
            maximum=float(values.max()),
            reference=reference,
        )


@dataclass(frozen=True)
class RepetitionResult:
    """Aggregated outcome of R repetitions of one population setup."""

    label: str
    fronts: tuple[FloatArray, ...]
    attainment: Mapping[str, ParetoFront]
    hypervolume: HypervolumeStats

    @property
    def repetitions(self) -> int:
        """Number of repetitions R."""
        return len(self.fronts)


#: One evaluator per cell source, shared by every repetition it runs: a
#: pool worker's restored dataset lives as long as the worker, an inline
#: source as long as its :func:`run_repetitions` call.  Queue-state
#: cache hits are bit-identical to fresh evaluations, so sharing never
#: perturbs results.
_CELL_EVALUATORS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _encode_front(front: FloatArray) -> dict:
    from repro.experiments.grid import front_to_payload

    return front_to_payload(front)


def _decode_front(r: int, payload: dict) -> FloatArray:
    from repro.experiments.grid import front_from_payload

    return front_from_payload(payload)


def _repetition_cell(source, extra: dict, r: int, attempt: int, obs) -> FloatArray:
    """Cell body: one repetition's full optimizer run, inline or pooled.

    The engine comes from the portfolio registry — ``extra["algorithm"]``
    ships the choice (a registry name, or a picklable factory) to pool
    workers alongside the dataset handle.  The RNG stream is
    ``derive_seed(base_seed, dataset, label, r)``, so fronts are
    bit-identical regardless of worker count, scheduling order, or
    transport.
    """
    fault_hook = extra["fault_hook"]
    if fault_hook is not None:
        fault_hook(r, attempt)
    evaluator = _CELL_EVALUATORS.get(source)
    if evaluator is None:
        evaluator = _CELL_EVALUATORS[source] = source.make_evaluator(
            check_feasibility=False, obs=obs
        )
    seed_label = extra["seed_label"]
    ga = make_algorithm(
        extra["algorithm"],
        evaluator,
        AlgorithmConfig(
            population_size=extra["population_size"],
            mutation_probability=extra["mutation_probability"],
        ),
        seeds=extra["seeds"],
        rng=derive_seed(extra["base_seed"], source.bundle.name, seed_label, r),
        label=f"{seed_label}#{r}",
        obs=obs,
    )
    return ga.run(extra["generations"]).final.front_points


def run_repetitions(
    dataset: DatasetBundle,
    repetitions: int,
    generations: int,
    population_size: int = 100,
    mutation_probability: float = 0.25,
    seed_label: str = "random",
    base_seed: int = 2013,
    workers: int = 0,
    transport: str = "auto",
    retry: Optional[RetryPolicy] = None,
    algorithm: Union[str, AlgorithmFactory] = "nsga2",
    grid_dir: Optional[str] = None,
    fault_hook=None,
    obs: Optional[RunContext] = None,
) -> RepetitionResult:
    """Run R independent optimizer repetitions of one population setup.

    Parameters
    ----------
    dataset:
        The (system, trace) bundle.
    repetitions:
        Number of independent runs R (>= 1).
    generations:
        Generations per run.
    seed_label:
        ``"random"`` or one of the heuristic names in
        :data:`repro.heuristics.SEEDING_HEURISTICS`; the heuristic
        allocation (deterministic) is shared, the random fill differs
        per repetition.
    base_seed:
        Master seed; repetition r uses ``derive_seed(base, label, r)``.
    workers:
        Process-pool size for fanning the R repetitions out in
        parallel; 0 (default) runs sequentially in-process.  The
        dataset's arrays are published once into shared memory (see
        :mod:`repro.parallel`) and workers attach zero-copy; each cell
        submission carries only the repetition index.  Fronts are
        reassembled in repetition order and are bit-identical to a
        sequential run (per-repetition RNG streams are derived from the
        seed, never from execution order).
    transport:
        Array transport for the parallel path: ``"auto"`` (shared
        memory when available, else pickle), ``"shm"``, or
        ``"pickle"``.  Results are bit-identical across transports.
    retry:
        Per-repetition :class:`~repro.experiments.runner.RetryPolicy`
        (default: 3 attempts, exponential backoff), applied the same way
        in process and in the pool.  A repetition that exhausts its
        budget raises :class:`~repro.errors.ExperimentError` naming it,
        chained to the last failure — a missing sample would silently
        bias the aggregate statistics.
    algorithm:
        Registry name (``"nsga2"``, ``"spea2"``, ...) or a factory
        callable with the :class:`~repro.core.algorithm.Algorithm`
        constructor signature.  Parallel runs require the value to be
        picklable (registry names always are).
    grid_dir:
        Directory for the durable grid manifest + result store (see
        :mod:`repro.experiments.grid`).  Every repetition's lifecycle
        is journaled and its final front persisted, so an interrupted
        run — dead worker, dead coordinator — resumes with
        ``repro-analyze grid resume`` (or by re-calling with the same
        arguments), skipping verified-complete repetitions.  Requires
        *algorithm* to be a registry name (re-drive must reconstruct
        it).  ``None`` (default) keeps the zero-overhead in-memory
        path: no manifest code runs at all.
    fault_hook:
        Test-only ``(repetition, attempt)`` hook invoked at the top of
        every cell attempt, in process and in pool workers alike (fault
        drills fail attempts and kill workers through it).  Must be
        picklable when ``workers > 1``.
    obs:
        Optional :class:`~repro.obs.context.RunContext` threaded into
        the evaluator and every repetition's engine; adds a
        ``repetition.run`` span per repetition on both paths and a
        final hypervolume gauge.  Parallel runs record coordinator-side telemetry
        (spans from worker-reported timings, queue-wait histograms,
        attach counters).
    """
    if repetitions < 1:
        raise ExperimentError(f"repetitions must be >= 1, got {repetitions}")
    if seed_label != "random" and seed_label not in SEEDING_HEURISTICS:
        raise ExperimentError(
            f"unknown seed label {seed_label!r}; expected 'random' or one of "
            f"{sorted(SEEDING_HEURISTICS)}"
        )
    if obs is None:
        obs = NULL_CONTEXT
    obs = obs.bind(dataset=dataset.name, seed_label=seed_label)
    seeds = []
    if seed_label != "random":
        with obs.span("seeding.build", heuristic=seed_label):
            seeds = [SEEDING_HEURISTICS[seed_label]().build(dataset.system,
                                                            dataset.trace)]

    grid_spec = None
    if grid_dir is not None:
        if not isinstance(algorithm, str):
            raise ExperimentError(
                "grid_dir requires a registry algorithm name — re-driving "
                "the grid must be able to reconstruct the optimizer from "
                "the journaled spec"
            )
        grid_spec = {
            "spec_version": SPEC_VERSION,
            "driver": "repetitions",
            "dataset": {"name": dataset.name, "seed": dataset.seed},
            "repetitions": repetitions,
            "generations": generations,
            "population_size": population_size,
            "mutation_probability": mutation_probability,
            "seed_label": seed_label,
            "base_seed": base_seed,
            "algorithm": algorithm,
        }

    def give_up(r: int, attempt: int, exc: BaseException) -> None:
        raise ExperimentError(
            f"repetition {r} failed after {attempt} attempt(s): "
            f"{type(exc).__name__}: {exc}"
        ) from exc

    fronts_by_r, quarantined = run_cells(
        CellSpec(
            driver="repetitions", span="repetition.run", key_attr="repetition",
            backoff_stream=(base_seed, "repetition-backoff", seed_label),
            label=lambda r: f"{seed_label}#{r}",
            encode=_encode_front,
            decode=_decode_front,
        ),
        _repetition_cell,
        range(repetitions),
        dataset=dataset,
        extra={
            "generations": generations,
            "population_size": population_size,
            "mutation_probability": mutation_probability,
            "seed_label": seed_label,
            "base_seed": base_seed,
            "seeds": seeds,
            "algorithm": algorithm,
            "fault_hook": fault_hook,
        },
        policy=retry if retry is not None else RetryPolicy(),
        give_up=give_up,
        obs=obs,
        workers=workers,
        transport=transport,
        grid_dir=grid_dir,
        grid_spec=grid_spec,
    )
    if quarantined:
        raise ExperimentError(
            f"repetitions {list(quarantined)} were quarantined (each crashed "
            f"its workers repeatedly); the rest of the grid is journaled "
            f"as done.  Inspect with 'repro-analyze grid status', "
            f"re-drive with 'repro-analyze grid retry-quarantined'."
        )
    fronts = list(fronts_by_r.values())

    all_pts = np.vstack(fronts)
    reference = (float(all_pts[:, 0].max() * 1.01),
                 float(all_pts[:, 1].min() * 0.99))
    stats = HypervolumeStats.from_fronts(fronts, reference)
    if obs.enabled:
        obs.metrics.gauge(
            "repetitions_hypervolume_mean",
            help="mean final-front hypervolume over repetitions",
        ).set(stats.mean)
    return RepetitionResult(
        label=seed_label,
        fronts=tuple(fronts),
        attainment=attainment_summary(fronts),
        hypervolume=stats,
    )

