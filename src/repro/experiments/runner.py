"""The seeded-population experiment runner (paper Section V-B / VI).

One experiment runs **five populations** over the same (system, trace):
one per heuristic seed — Min Energy (diamond marker in the paper's
figures), Min-Min Completion Time (square), Max Utility (circle),
Max Utility-per-Energy (triangle) — plus the completely random initial
population (star).  Each population evolves independently with its own
derived RNG stream; snapshots are taken at the configured checkpoint
generations.

Fault tolerance (see ``docs/fault_tolerance.md``): each population is
a grid cell run by :func:`repro.experiments.cells.run_cells`, in
process or in a worker pool; every attempt is governed by a
:class:`RetryPolicy` — bounded retries with exponential backoff +
deterministic jitter, and (in the pool) a per-attempt timeout.  A
population that exhausts its attempts degrades to a
:class:`PopulationFailure` record on the result instead of destroying
its siblings' work; ``strict=True`` restores fail-fast semantics.  With
a ``checkpoint_dir``, retries and explicit resumes continue from the
population's last durable NSGA-II checkpoint rather than starting over.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.pareto_front import ParetoFront
from repro.core.algorithm import RunHistory
from repro.core.registry import make_algorithm
from repro.errors import ExperimentError
from repro.experiments.cells import CellSpec, run_cells
from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import DatasetBundle
from repro.heuristics import SEEDING_HEURISTICS
from repro.rng import derive_seed
from repro.sim.evaluator import ScheduleEvaluator
from repro.sim.schedule import ResourceAllocation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.context import RunContext

__all__ = [
    "PopulationFailure",
    "RetryPolicy",
    "SeededPopulationResult",
    "run_seeded_populations",
    "POPULATION_LABELS",
]

#: Population labels in the paper's marker order (random last).
POPULATION_LABELS: tuple[str, ...] = (
    "min-energy",
    "min-min-completion-time",
    "max-utility",
    "max-utility-per-energy",
    "random",
)


@dataclass(frozen=True)
class PopulationFailure:
    """A population whose every attempt failed.

    Attributes
    ----------
    label:
        The population's label.
    attempts:
        How many attempts were made before giving up.
    error:
        ``"ExceptionType: message"`` of the final attempt's failure.
    """

    label: str
    attempts: int
    error: str


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded-retry behaviour of one grid cell (population, repetition,
    or portfolio algorithm), the same in process and in a worker pool.

    Attributes
    ----------
    max_attempts:
        Total attempts per cell (1 = no retry).
    timeout:
        Per-attempt wall-clock limit in seconds (``None`` disables).
        Enforced in the worker pool only: an attempt that runs in the
        coordinator's own process (``workers <= 1``, or one cell left
        to run) cannot be pre-empted, so there it is ignored.  A
        timed-out attempt counts as a failure and is retried under the
        same policy.  The abandoned worker process
        cannot be killed mid-task; it occupies a pool slot until it
        finishes or the pool shuts down.
    backoff_base:
        First retry delay; under ``"proportional"`` jitter, attempt
        *k*'s delay is ``min(backoff_max, backoff_base * 2**(k-1))``.
    backoff_max:
        Delay ceiling.
    jitter:
        (``"proportional"`` mode only.)  Multiplies the delay by
        ``1 + jitter * u`` with ``u ~ U[0, 1)`` drawn from a per-cell
        stream derived from the experiment seed, so backoff spreading
        is reproducible.
    jitter_mode:
        ``"proportional"`` (default) keeps the classic exponential
        schedule with a small multiplicative spread — failures that
        happen together retry nearly together.  ``"decorrelated"``
        uses the AWS-style decorrelated-jitter schedule: each delay is
        drawn uniformly from ``[backoff_base, 3 * previous delay]``
        (capped at ``backoff_max``), so a batch of cells that all
        failed at the same instant — one dead worker takes out a whole
        pool generation — fan out instead of hammering the retry path
        in lockstep.  Both modes draw from the same per-cell seeded
        streams, so schedules stay reproducible.
    """

    max_attempts: int = 3
    timeout: Optional[float] = None
    backoff_base: float = 0.5
    backoff_max: float = 30.0
    jitter: float = 0.1
    jitter_mode: str = "proportional"

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ExperimentError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ExperimentError(f"timeout must be positive, got {self.timeout}")
        if self.backoff_base < 0 or self.backoff_max < 0 or self.jitter < 0:
            raise ExperimentError(
                "backoff_base, backoff_max, and jitter must be >= 0"
            )
        if self.jitter_mode not in ("proportional", "decorrelated"):
            raise ExperimentError(
                f"jitter_mode must be 'proportional' or 'decorrelated', "
                f"got {self.jitter_mode!r}"
            )

    def delay(
        self,
        attempt: int,
        rng: np.random.Generator,
        prev: Optional[float] = None,
    ) -> float:
        """Backoff before retrying after the *attempt*-th failure.

        *prev* is the previous delay handed to the same cell (``None``
        on its first retry); only the ``"decorrelated"`` mode reads it.
        Deterministic for a given seeded *rng* in both modes.
        """
        if self.jitter_mode == "decorrelated":
            floor = self.backoff_base
            high = max(3.0 * (prev if prev is not None else floor), floor)
            return min(
                self.backoff_max,
                floor + (high - floor) * float(rng.random()),
            )
        base = min(self.backoff_max, self.backoff_base * 2 ** (attempt - 1))
        if self.jitter:
            base *= 1.0 + self.jitter * float(rng.random())
        return base


@dataclass(frozen=True)
class SeededPopulationResult:
    """All populations' run histories for one data set.

    ``histories`` holds the populations that completed; ``failures``
    records those that exhausted their retry budget.  Front accessors
    operate on the surviving populations.
    """

    dataset_name: str
    config: ExperimentConfig
    histories: Mapping[str, RunHistory]
    seed_objectives: Mapping[str, tuple[float, float]]
    failures: tuple[PopulationFailure, ...] = field(default=())

    def front(self, label: str, generation: Optional[int] = None) -> ParetoFront:
        """The Pareto front of *label* at *generation* (default: final)."""
        history = self.histories.get(label)
        if history is None:
            failed = {f.label: f for f in self.failures}
            if label in failed:
                raise ExperimentError(
                    f"population {label!r} failed after "
                    f"{failed[label].attempts} attempts: {failed[label].error}"
                )
            raise ExperimentError(
                f"unknown population {label!r}; have {sorted(self.histories)}"
            )
        snap = history.final if generation is None else history.snapshot_at(generation)
        return ParetoFront(points=snap.front_points, label=label)

    def fronts_at(self, generation: int) -> dict[str, ParetoFront]:
        """All surviving populations' fronts at one checkpoint."""
        return {
            label: self.front(label, generation) for label in self.histories
        }

    def combined_front(self) -> ParetoFront:
        """Nondominated union of every surviving population's final front."""
        if not self.histories:
            raise ExperimentError(
                "no population survived; cannot build a combined front"
            )
        pts = np.vstack(
            [h.final.front_points for h in self.histories.values()]
        )
        return ParetoFront.from_points(pts, label="combined")

    @property
    def failed_labels(self) -> tuple[str, ...]:
        """Labels of populations that exhausted their retry budget."""
        return tuple(f.label for f in self.failures)


def run_seeded_populations(
    dataset: DatasetBundle,
    config: ExperimentConfig,
    labels: Sequence[str] = POPULATION_LABELS,
    extra_seeds: Optional[Mapping[str, Sequence[ResourceAllocation]]] = None,
    workers: int = 0,
    *,
    transport: str = "auto",
    retry: Optional[RetryPolicy] = None,
    strict: bool = False,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    grid_dir: Optional[str] = None,
    fault_hook: Optional[Callable[[str, int], None]] = None,
    evaluation_fault_hook: Optional[Callable[[], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
    obs: Optional["RunContext"] = None,
) -> SeededPopulationResult:
    """Run the seeded-population experiment on *dataset*.

    Parameters
    ----------
    dataset:
        The (system, trace) bundle.
    config:
        Population size, operators, checkpoints.
    labels:
        Which populations to run (duplicates are rejected).  Known
        labels: the four heuristic names of
        :data:`repro.heuristics.SEEDING_HEURISTICS`, ``"random"``, and
        ``"all-seeds"`` (all four heuristics in one population — the
        paper's dropped variant, used by ablation A5).
    extra_seeds:
        Optional label → seed-allocation list for custom populations.
    workers:
        Process-pool size for running populations in parallel; 0 (the
        default) runs sequentially in-process.  Results are identical
        either way (each population's RNG stream is derived from the
        config seed, not from execution order).  Parallel results are
        collected as they complete, so one slow population never
        serializes the others.  The dataset's arrays are published once
        into shared memory and workers attach zero-copy (see
        :mod:`repro.parallel`); per-cell submissions carry only a few
        bytes of descriptors.
    transport:
        Array transport for the parallel path: ``"auto"`` (shared
        memory when available, else pickle), ``"shm"``, or
        ``"pickle"``.  Results are bit-identical across transports.
    retry:
        Per-population :class:`RetryPolicy`; default
        ``RetryPolicy()`` (3 attempts, exponential backoff).
    strict:
        When ``True``, a population that exhausts its attempts raises
        :class:`~repro.errors.ExperimentError` immediately (fail-fast).
        When ``False`` (default), it degrades to a
        :class:`PopulationFailure` on the result and its siblings'
        histories are preserved; only the loss of *every* population
        raises.
    checkpoint_dir:
        Directory for durable NSGA-II checkpoints (one file per
        population).  Retries after a mid-run crash resume from the
        last checkpoint instead of starting over.
    resume:
        Resume every population from its checkpoint in
        *checkpoint_dir* where one exists (first attempts included) —
        the ``repro-analyze resume`` workflow.
    grid_dir:
        Directory for the durable grid manifest + result store (see
        :mod:`repro.experiments.grid`).  Each population is a journaled
        grid cell whose completed history is persisted, so an
        interrupted experiment resumes via ``repro-analyze grid
        resume`` (or by re-calling with the same arguments), skipping
        verified-complete populations.  Unless *checkpoint_dir* is
        given, per-population checkpoints default to
        ``<grid_dir>/checkpoints`` so re-driven cells also resume
        mid-run.  ``None`` (default) keeps the zero-overhead in-memory
        path.
    fault_hook:
        Test-only ``(label, attempt)`` hook invoked at the top of every
        attempt, in process and in pool workers alike (see
        :mod:`repro.testing.faults`).  Must be picklable when
        ``workers > 1``.
    evaluation_fault_hook:
        Test-only zero-arg hook threaded into each attempt's
        :class:`~repro.sim.evaluator.ScheduleEvaluator`.
    sleep:
        Injectable sleep used for backoff waits (tests pass a recorder).
    obs:
        Optional :class:`~repro.obs.context.RunContext`.  Records
        heuristic-seeding spans, a ``population.run`` span per
        population, retry/failure events and counters, and (in process
        only — contexts don't cross process boundaries) the full
        per-population GA/evaluator/checkpoint telemetry.
    """
    labels = list(labels)
    if len(set(labels)) != len(labels):
        dupes = sorted({lb for lb in labels if labels.count(lb) > 1})
        raise ExperimentError(f"duplicate population labels: {dupes}")
    policy = retry if retry is not None else RetryPolicy()
    if obs is None:
        from repro.obs.context import NULL_CONTEXT

        obs = NULL_CONTEXT
    obs = obs.bind(dataset=dataset.name)

    grid_spec = None
    if grid_dir is not None:
        if extra_seeds:
            raise ExperimentError(
                "grid_dir does not support extra_seeds populations — their "
                "allocations are runtime objects the manifest cannot "
                "fingerprint or re-drive"
            )
        from pathlib import Path

        grid_spec = {
            "driver": "seeded-populations",
            "dataset": {"name": dataset.name, "seed": dataset.seed},
            "config": config.to_spec(),
            "labels": list(labels),
        }
        if checkpoint_dir is None:
            # Re-driven cells should resume mid-run, not restart.
            checkpoint_dir = str(Path(grid_dir) / "checkpoints")
            Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)

    evaluator = ScheduleEvaluator(dataset.system, dataset.trace,
                                  check_feasibility=False)

    # Build each heuristic's allocation once (shared across labels).
    heuristic_allocs: dict[str, ResourceAllocation] = {}
    needed = set()
    for label in labels:
        if label in SEEDING_HEURISTICS:
            needed.add(label)
        elif label == "all-seeds":
            needed.update(SEEDING_HEURISTICS)
        elif label == "random":
            pass
        elif extra_seeds is None or label not in extra_seeds:
            raise ExperimentError(f"unknown population label {label!r}")
    for name in sorted(needed):
        with obs.span("seeding.build", heuristic=name):
            heuristic_allocs[name] = SEEDING_HEURISTICS[name]().build(
                dataset.system, dataset.trace
            )

    seed_objectives = {
        name: evaluator.objectives(alloc)
        for name, alloc in heuristic_allocs.items()
    }

    def seeds_for(label: str) -> list[ResourceAllocation]:
        if label in SEEDING_HEURISTICS:
            return [heuristic_allocs[label]]
        if label == "all-seeds":
            return [heuristic_allocs[name] for name in sorted(SEEDING_HEURISTICS)]
        if label == "random":
            return []
        return list(extra_seeds[label])  # type: ignore[index]

    failures: list[PopulationFailure] = []

    def give_up(label: str, attempt: int, exc: BaseException) -> None:
        if obs.enabled:
            obs.counter(
                "runner_failures_total",
                help="populations that exhausted their retry budget",
            ).inc()
            obs.event(
                "population.failed", level="error",
                label=label, attempts=attempt,
                error=f"{type(exc).__name__}: {exc}",
            )
        if strict:
            raise ExperimentError(
                f"population {label!r} failed after {attempt} attempt(s): "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        failures.append(
            PopulationFailure(
                label=label,
                attempts=attempt,
                error=f"{type(exc).__name__}: {exc}",
            )
        )

    histories, quarantined = run_cells(
        CellSpec(
            driver="seeded-populations", span="population.run",
            key_attr="label", backoff_stream=(config.base_seed, "retry-backoff"),
        ),
        _population_cell,
        labels,
        dataset=dataset,
        extra={
            "config": config,
            "seeds": {label: seeds_for(label) for label in labels},
            "fault_hook": fault_hook,
            "evaluation_fault_hook": evaluation_fault_hook,
            "checkpoint_dir": checkpoint_dir,
            "resume": resume,
        },
        policy=policy,
        give_up=give_up,
        obs=obs,
        workers=workers,
        transport=transport,
        grid_dir=grid_dir,
        grid_spec=grid_spec,
        sleep=sleep,
    )
    for q_label, attempts in quarantined.items():
        message = (
            "quarantined after repeated worker crashes "
            "(inspect with 'repro-analyze grid status', re-drive with "
            "'repro-analyze grid retry-quarantined')"
        )
        if strict:
            raise ExperimentError(f"population {q_label!r} {message}")
        failures.append(
            PopulationFailure(label=q_label, attempts=attempts, error=message)
        )

    if labels and not histories:
        summary = "; ".join(f"{f.label}: {f.error}" for f in failures)
        raise ExperimentError(f"every population failed — {summary}")
    return SeededPopulationResult(
        dataset_name=dataset.name,
        config=config,
        histories=histories,
        seed_objectives=seed_objectives,
        failures=tuple(failures),
    )


def _population_cell(source, extra: dict, label: str, attempt: int, obs) -> RunHistory:
    """Cell body: one population attempt, inline or in a pool worker.

    The engine is looked up from ``config.algorithm`` through the
    portfolio registry, so the same body serves NSGA-II, SPEA2, MOEA/D,
    and the archive variants.  Each attempt builds its own evaluator;
    the RNG stream is derived from the config seed and the label, so
    results are bit-identical whatever the execution order, worker
    count, or transport.  ``extra["fault_hook"]`` (called with
    ``(label, attempt)`` before any work) and
    ``extra["evaluation_fault_hook"]`` (threaded into the evaluator)
    serve the fault-injection harness.  Retries resume from the
    population's checkpoint when there is a checkpoint directory.
    """
    fault_hook = extra["fault_hook"]
    if fault_hook is not None:
        fault_hook(label, attempt)
    config: ExperimentConfig = extra["config"]
    checkpoint_dir = extra["checkpoint_dir"]
    evaluator = source.make_evaluator(
        check_feasibility=False,
        fault_hook=extra["evaluation_fault_hook"],
        obs=obs,
    )
    ga = make_algorithm(
        config.algorithm,
        evaluator,
        config.algorithm_config(),
        seeds=extra["seeds"][label],
        rng=derive_seed(config.base_seed, source.bundle.name, label),
        label=label,
        obs=obs,
    )
    return ga.run(
        generations=config.generations,
        checkpoints=list(config.checkpoints),
        checkpoint_dir=checkpoint_dir,
        resume=extra["resume"] or (attempt > 1 and checkpoint_dir is not None),
    )
