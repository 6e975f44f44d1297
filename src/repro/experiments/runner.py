"""The seeded-population experiment runner (paper Section V-B / VI).

One experiment runs **five populations** over the same (system, trace):
one per heuristic seed — Min Energy (diamond marker in the paper's
figures), Min-Min Completion Time (square), Max Utility (circle),
Max Utility-per-Energy (triangle) — plus the completely random initial
population (star).  Each population evolves independently with its own
derived RNG stream; snapshots are taken at the configured checkpoint
generations.

Fault tolerance (see ``docs/fault_tolerance.md``): each population
worker is an *attempt* governed by a :class:`RetryPolicy` — bounded
retries with exponential backoff + deterministic jitter, and (in the
process-pool path) a per-attempt timeout.  A population that exhausts
its attempts degrades to a :class:`PopulationFailure` record on the
result instead of destroying its siblings' work; ``strict=True``
restores fail-fast semantics.  With a ``checkpoint_dir``, retries and
explicit resumes continue from the population's last durable NSGA-II
checkpoint rather than starting over.
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
from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import DatasetBundle
from repro.heuristics import SEEDING_HEURISTICS
from repro.rng import derive_seed, ensure_rng
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
    """Bounded-retry behaviour of one population worker.

    Attributes
    ----------
    max_attempts:
        Total attempts per population (1 = no retry).
    timeout:
        Per-attempt wall-clock limit in seconds (process-pool path
        only — a single in-process run cannot be pre-empted; ``None``
        disables).  A timed-out attempt counts as a failure and is
        retried under the same policy.  The abandoned worker process
        cannot be killed mid-task; it occupies a pool slot until it
        finishes or the pool shuts down.
    backoff_base:
        First retry delay; under ``"proportional"`` jitter, attempt
        *k*'s delay is ``min(backoff_max, backoff_base * 2**(k-1))``.
    backoff_max:
        Delay ceiling.
    jitter:
        (``"proportional"`` mode only.)  Multiplies the delay by
        ``1 + jitter * u`` with ``u ~ U[0, 1)`` drawn from a per-label
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
        in lockstep.  Both modes draw from the same per-label seeded
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


def _run_one_population(
    dataset: DatasetBundle,
    config: ExperimentConfig,
    label: str,
    seeds: list[ResourceAllocation],
    attempt: int = 1,
    fault_hook: Optional[Callable[[str, int], None]] = None,
    evaluation_fault_hook: Optional[Callable[[], None]] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    obs: Optional["RunContext"] = None,
) -> tuple[str, RunHistory]:
    """Worker body: one population's full optimizer run.

    The engine is looked up from ``config.algorithm`` through the
    portfolio registry, so the same worker serves NSGA-II, SPEA2,
    MOEA/D, and the archive variants.  Module-level (picklable) so
    :func:`run_seeded_populations` can farm populations out to a
    process pool — the five populations share no state and are
    embarrassingly parallel.  *fault_hook* (called with ``(label,
    attempt)`` before any work) and *evaluation_fault_hook* (threaded
    into the evaluator) exist for the deterministic fault-injection
    harness.  *obs* is only threaded through on the sequential path — a
    :class:`~repro.obs.context.RunContext` is not picklable into pool
    workers, so parallel runs record coordinator-side telemetry
    (retries, failures, timings) only.
    """
    if fault_hook is not None:
        fault_hook(label, attempt)
    evaluator = ScheduleEvaluator(dataset.system, dataset.trace,
                                  check_feasibility=False,
                                  fault_hook=evaluation_fault_hook,
                                  obs=obs)
    ga = make_algorithm(
        config.algorithm,
        evaluator,
        config.algorithm_config(),
        seeds=seeds,
        rng=derive_seed(config.base_seed, dataset.name, label),
        label=label,
        obs=obs,
    )
    history = ga.run(
        generations=config.generations,
        checkpoints=list(config.checkpoints),
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
    return label, history


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
        worker attempt (see :mod:`repro.testing.faults`).  Must be
        picklable when ``workers > 1``.
    evaluation_fault_hook:
        Test-only zero-arg hook threaded into each worker's
        :class:`~repro.sim.evaluator.ScheduleEvaluator`.
    sleep:
        Injectable sleep used for backoff waits (tests pass a recorder).
    obs:
        Optional :class:`~repro.obs.context.RunContext`.  Records
        heuristic-seeding spans, retry/failure events and counters, and
        (sequentially only — contexts don't cross process boundaries)
        the full per-population GA/evaluator/checkpoint telemetry.
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

    binding = None
    if grid_dir is not None:
        if extra_seeds:
            raise ExperimentError(
                "grid_dir does not support extra_seeds populations — their "
                "allocations are runtime objects the manifest cannot "
                "fingerprint or re-drive"
            )
        from pathlib import Path

        from repro.experiments.grid import GridBinding

        grid_spec = {
            "driver": "seeded-populations",
            "dataset": {"name": dataset.name, "seed": dataset.seed},
            "config": config.to_spec(),
            "labels": list(labels),
        }
        binding = GridBinding.open_or_create(
            grid_dir, spec=grid_spec, dataset=dataset,
            keys=list(labels), obs=obs,
        )
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

    backoff_rngs: dict[str, np.random.Generator] = {}
    prev_delays: dict[str, float] = {}

    def backoff_for(label: str, attempt: int) -> float:
        if label not in backoff_rngs:
            backoff_rngs[label] = ensure_rng(
                derive_seed(config.base_seed, "retry-backoff", label)
            )
        delay = policy.delay(
            attempt, backoff_rngs[label], prev=prev_delays.get(label)
        )
        prev_delays[label] = delay
        # backoff_for is called exactly once per scheduled retry, on
        # both the sequential and the process-pool paths.
        if obs.enabled:
            obs.counter(
                "runner_retries_total", help="population attempts retried"
            ).inc()
            obs.event(
                "retry.scheduled", level="warning",
                label=label, failed_attempt=attempt, delay_seconds=delay,
            )
        return delay

    def resume_attempt(attempt: int) -> bool:
        # Explicit resumes always; retries resume iff checkpoints exist.
        return resume or (attempt > 1 and checkpoint_dir is not None)

    histories: dict[str, RunHistory] = {}
    failures: list[PopulationFailure] = []

    todo: list[str] = list(labels)
    if binding is not None:
        # Function-level import: repro.experiments.io imports this
        # module for its result types.
        from repro.experiments.io import history_from_doc, history_to_doc

        for done_label, payload in binding.preloaded.items():
            histories[done_label] = history_from_doc(
                done_label, payload["history"]
            )
        todo = binding.pending_keys(labels)

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

    if workers and workers > 1 and len(todo) > 1:
        _run_parallel(
            dataset, config, todo, seeds_for, workers, policy,
            fault_hook, evaluation_fault_hook, checkpoint_dir,
            resume_attempt, backoff_for, give_up, histories, sleep,
            obs=obs, transport=transport, binding=binding,
        )
    else:
        for label in todo:
            attempt = 0
            while True:
                attempt += 1
                try:
                    if binding is not None:
                        binding.mark_running(label, attempt)
                    _, history = _run_one_population(
                        dataset, config, label, seeds_for(label),
                        attempt=attempt,
                        fault_hook=fault_hook,
                        evaluation_fault_hook=evaluation_fault_hook,
                        checkpoint_dir=checkpoint_dir,
                        resume=resume_attempt(attempt),
                        obs=obs,
                    )
                    histories[label] = history
                    if binding is not None:
                        binding.record_done(
                            label, {"history": history_to_doc(history)}
                        )
                    break
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    if binding is not None:
                        binding.mark_failed(label, attempt, exc)
                    if attempt >= policy.max_attempts:
                        give_up(label, attempt, exc)
                        break
                    sleep(backoff_for(label, attempt))

    # Cells land in completion (or preload) order; restore label order
    # so every downstream iteration (reports, dominance tables) is
    # identical to a serial, non-grid run.
    histories = {
        label: histories[label] for label in labels if label in histories
    }

    if binding is not None:
        for q_label in binding.quarantined_keys():
            status = binding.manifest.cells[q_label]
            message = (
                "quarantined after repeated worker crashes "
                "(inspect with 'repro-analyze grid status', re-drive with "
                "'repro-analyze grid retry-quarantined')"
            )
            if strict:
                raise ExperimentError(f"population {q_label!r} {message}")
            failures.append(
                PopulationFailure(
                    label=q_label,
                    attempts=max(status.attempt, 1),
                    error=message,
                )
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


def _population_cell(
    restored,
    extra: dict,
    label: str,
    attempt: int,
    resume: bool,
) -> tuple[str, RunHistory]:
    """Engine cell body: one population attempt on the shared dataset.

    Runs in a pool worker.  *restored* is the worker's memoized
    :class:`~repro.parallel.descriptors.RestoredDataset` — the
    evaluator is built over its zero-copy shared views, so per-attempt
    setup does no O(tasks × machines) array work.  The RNG stream is
    derived exactly as on the sequential path, so results are
    bit-identical regardless of execution order or transport.
    """
    from repro.parallel.engine import worker_obs

    fault_hook = extra["fault_hook"]
    if fault_hook is not None:
        fault_hook(label, attempt)
    config: ExperimentConfig = extra["config"]
    dataset = restored.bundle
    evaluator = restored.make_evaluator(
        check_feasibility=False,
        fault_hook=extra["evaluation_fault_hook"],
    )
    ga = make_algorithm(
        config.algorithm,
        evaluator,
        config.algorithm_config(),
        seeds=extra["seeds"][label],
        rng=derive_seed(config.base_seed, dataset.name, label),
        label=label,
        # The worker's own telemetry sink (NULL_CONTEXT when dark): GA
        # stage spans nest under this cell's ``cell.run`` span.
        obs=worker_obs(),
    )
    history = ga.run(
        generations=config.generations,
        checkpoints=list(config.checkpoints),
        checkpoint_dir=extra["checkpoint_dir"],
        resume=resume,
    )
    return label, history


def _run_parallel(
    dataset: DatasetBundle,
    config: ExperimentConfig,
    labels: Sequence[str],
    seeds_for: Callable[[str], list[ResourceAllocation]],
    workers: int,
    policy: RetryPolicy,
    fault_hook: Optional[Callable[[str, int], None]],
    evaluation_fault_hook: Optional[Callable[[], None]],
    checkpoint_dir: Optional[str],
    resume_attempt: Callable[[int], bool],
    backoff_for: Callable[[str, int], float],
    give_up: Callable[[str, int, BaseException], None],
    histories: dict[str, RunHistory],
    sleep: Callable[[float], None],
    obs: Optional["RunContext"] = None,
    transport: str = "auto",
    binding=None,
) -> None:
    """Zero-copy process-pool orchestration via the parallel engine.

    The dataset's arrays are published once into shared memory (see
    :mod:`repro.parallel`); workers attach zero-copy through the pool
    initializer, so each cell submission carries only ``(label,
    attempt, resume)``.  The engine provides as-completed collection,
    heap-scheduled backoff retries, per-attempt timeouts with cell
    leases (a timed-out attempt and its retry never run concurrently),
    and clean ``KeyboardInterrupt`` shutdown.
    """
    from repro.obs.context import NULL_CONTEXT
    from repro.obs.distributed import GRID_SPAN_NAME, WorkerTelemetryConfig
    from repro.parallel.descriptors import publish_dataset
    from repro.parallel.engine import CellReply, ParallelEngine

    extra = {
        "config": config,
        "seeds": {label: seeds_for(label) for label in labels},
        "fault_hook": fault_hook,
        "evaluation_fault_hook": evaluation_fault_hook,
        "checkpoint_dir": checkpoint_dir,
    }

    def on_result(reply: CellReply) -> None:
        finished_label, history = reply.result
        histories[finished_label] = history
        if binding is not None:
            from repro.experiments.io import history_to_doc

            binding.record_done(
                finished_label, {"history": history_to_doc(history)}
            )
        if obs is not None and obs.enabled:
            obs.record_span(
                "population.run", reply.elapsed,
                label=finished_label, attempt=reply.attempt,
            )

    journal = binding.worker_journal() if binding is not None else None
    run_kwargs = binding.run_kwargs() if binding is not None else {}
    grid_id = binding.manifest.grid_id if binding is not None else ""
    telemetry = WorkerTelemetryConfig.from_context(obs, grid_id=grid_id)
    grid_obs = obs if obs is not None else NULL_CONTEXT
    with publish_dataset(dataset, transport=transport, obs=obs) as published:
        with ParallelEngine(
            workers, handle=published.handle, extra=extra, obs=obs,
            journal=journal, telemetry=telemetry,
        ) as engine:
            with grid_obs.span(
                GRID_SPAN_NAME, grid_id=grid_id, cells=len(labels),
                driver="seeded-populations",
            ):
                engine.run(
                    _population_cell,
                    labels,
                    payload_for=lambda label, attempt: resume_attempt(attempt),
                    policy=policy,
                    backoff_for=backoff_for,
                    give_up=give_up,
                    on_result=on_result,
                    sleep=sleep,
                    **run_kwargs,
                )
