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

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from repro.analysis.attainment import attainment_summary
from repro.analysis.indicators import hypervolume
from repro.analysis.pareto_front import ParetoFront
from repro.core.algorithm import AlgorithmConfig
from repro.core.registry import AlgorithmFactory, make_algorithm
from repro.errors import ExperimentError
from repro.experiments.config import SPEC_VERSION
from repro.experiments.datasets import DatasetBundle
from repro.experiments.runner import RetryPolicy
from repro.heuristics import SEEDING_HEURISTICS
from repro.obs.context import NULL_CONTEXT, RunContext
from repro.obs.distributed import GRID_SPAN_NAME, WorkerTelemetryConfig
from repro.parallel.descriptors import publish_dataset
from repro.parallel.engine import CellReply, ParallelEngine, worker_obs
from repro.rng import derive_seed, ensure_rng
from repro.sim.evaluator import ScheduleEvaluator
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


#: Per-worker memo of evaluators keyed by dataset id — one queue-state
#: cache per (worker, dataset), shared by every repetition cell the
#: worker executes.  Cache hits are bit-identical to fresh
#: evaluations, so sharing never perturbs results.
_CELL_EVALUATORS: dict[str, ScheduleEvaluator] = {}


def _repetition_cell(restored, extra: dict, r: int, attempt: int, payload) -> FloatArray:
    """Engine cell body: one repetition's full optimizer run (pool worker).

    The engine comes from the portfolio registry — ``extra["algorithm"]``
    ships the choice (a registry name, or a picklable factory) to the
    worker alongside the dataset handle.  The RNG stream is
    ``derive_seed(base_seed, dataset, label, r)`` — exactly the serial
    derivation — so fronts are bit-identical to a sequential run
    regardless of worker count, scheduling order, or transport.
    """
    fault_hook = extra.get("fault_hook")
    if fault_hook is not None:
        fault_hook(r, attempt)
    memo_key = restored.handle.dataset_id
    evaluator = _CELL_EVALUATORS.get(memo_key)
    if evaluator is None:
        evaluator = restored.make_evaluator(check_feasibility=False)
        _CELL_EVALUATORS[memo_key] = evaluator
    dataset = restored.bundle
    seed_label = extra["seed_label"]
    ga = make_algorithm(
        extra["algorithm"],
        evaluator,
        AlgorithmConfig(
            population_size=extra["population_size"],
            mutation_probability=extra["mutation_probability"],
        ),
        seeds=extra["seeds"],
        rng=derive_seed(extra["base_seed"], dataset.name, seed_label, r),
        label=f"{seed_label}#{r}",
        # The worker's own telemetry sink (NULL_CONTEXT when dark): GA
        # stage spans nest under this cell's ``cell.run`` span.
        obs=worker_obs(),
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
        for the parallel path (default: 3 attempts, exponential
        backoff).  A repetition that exhausts its budget raises — a
        missing sample would silently bias the aggregate statistics.
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
        every cell attempt (chaos drills kill workers through it).
        Must be picklable when ``workers > 1``.
    obs:
        Optional :class:`~repro.obs.context.RunContext` threaded into
        the evaluator and every repetition's engine; adds a
        ``repetition.run`` span per repetition and a final hypervolume
        gauge.  Parallel runs record coordinator-side telemetry
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

    binding = None
    if grid_dir is not None:
        if not isinstance(algorithm, str):
            raise ExperimentError(
                "grid_dir requires a registry algorithm name — re-driving "
                "the grid must be able to reconstruct the optimizer from "
                "the journaled spec"
            )
        from repro.experiments.grid import GridBinding

        spec = {
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
        binding = GridBinding.open_or_create(
            grid_dir, spec=spec, dataset=dataset,
            keys=list(range(repetitions)), obs=obs,
        )

    all_keys = list(range(repetitions))
    fronts_by_r: dict[int, FloatArray] = {}
    if binding is not None:
        from repro.experiments.grid import front_from_payload

        for r, payload in binding.preloaded.items():
            fronts_by_r[r] = front_from_payload(payload)
        todo = binding.pending_keys(all_keys)
    else:
        todo = all_keys

    if workers and workers > 1 and len(todo) > 1:
        _run_repetitions_parallel(
            dataset, todo, generations, population_size,
            mutation_probability, seed_label, base_seed, workers,
            transport, retry, seeds, obs, algorithm,
            fronts_by_r=fronts_by_r, binding=binding,
            fault_hook=fault_hook,
        )
    elif todo:
        evaluator = ScheduleEvaluator(dataset.system, dataset.trace,
                                      check_feasibility=False, obs=obs)
        for r in todo:
            if fault_hook is not None:
                fault_hook(r, 1)
            if binding is not None:
                binding.mark_running(r)
            ga = make_algorithm(
                algorithm,
                evaluator,
                AlgorithmConfig(
                    population_size=population_size,
                    mutation_probability=mutation_probability,
                ),
                seeds=seeds,
                rng=derive_seed(base_seed, dataset.name, seed_label, r),
                label=f"{seed_label}#{r}",
                obs=obs,
            )
            try:
                with obs.span("repetition.run", repetition=r):
                    front = ga.run(generations).final.front_points
            except Exception as exc:
                if binding is not None:
                    binding.mark_failed(r, 1, exc)
                raise
            fronts_by_r[r] = front
            if binding is not None:
                from repro.experiments.grid import front_to_payload

                binding.record_done(r, front_to_payload(front))

    if binding is not None:
        quarantined = binding.quarantined_keys()
        if quarantined:
            raise ExperimentError(
                f"repetitions {quarantined} were quarantined (each crashed "
                f"its workers repeatedly); the rest of the grid is journaled "
                f"as done.  Inspect with 'repro-analyze grid status', "
                f"re-drive with 'repro-analyze grid retry-quarantined'."
            )
    fronts = [fronts_by_r[r] for r in all_keys]

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


def _run_repetitions_parallel(
    dataset: DatasetBundle,
    keys: list,
    generations: int,
    population_size: int,
    mutation_probability: float,
    seed_label: str,
    base_seed: int,
    workers: int,
    transport: str,
    retry: Optional[RetryPolicy],
    seeds: list,
    obs: RunContext,
    algorithm: Union[str, AlgorithmFactory] = "nsga2",
    *,
    fronts_by_r: dict,
    binding=None,
    fault_hook=None,
) -> None:
    """Fan the repetition cells in *keys* out over the parallel engine.

    Publishes the dataset once, ships the heuristic seed allocation
    once per worker via the pool initializer, and submits only the
    repetition index per cell.  Completed fronts land in *fronts_by_r*
    keyed by repetition, whatever order the cells completed in.  With
    a grid *binding*, workers heartbeat through the manifest journal,
    every lifecycle transition is journaled, and each front is
    persisted to the result store the moment it completes.
    """
    policy = retry if retry is not None else RetryPolicy()
    extra = {
        "generations": generations,
        "population_size": population_size,
        "mutation_probability": mutation_probability,
        "seed_label": seed_label,
        "base_seed": base_seed,
        "seeds": seeds,
        "algorithm": algorithm,
        "fault_hook": fault_hook,
    }
    backoff_rngs: dict[int, np.random.Generator] = {}
    prev_delays: dict[int, float] = {}

    def backoff_for(r: int, attempt: int) -> float:
        if r not in backoff_rngs:
            backoff_rngs[r] = ensure_rng(
                derive_seed(base_seed, "repetition-backoff", seed_label, r)
            )
        delay = policy.delay(
            attempt, backoff_rngs[r], prev=prev_delays.get(r)
        )
        prev_delays[r] = delay
        if obs.enabled:
            obs.counter(
                "runner_retries_total", help="population attempts retried"
            ).inc()
            obs.event(
                "retry.scheduled", level="warning",
                label=f"{seed_label}#{r}", failed_attempt=attempt,
                delay_seconds=delay,
            )
        return delay

    def give_up(r: int, attempt: int, exc: BaseException) -> None:
        raise ExperimentError(
            f"repetition {r} failed after {attempt} attempt(s): "
            f"{type(exc).__name__}: {exc}"
        ) from exc

    def on_result(reply: CellReply) -> None:
        fronts_by_r[reply.key] = reply.result
        if binding is not None:
            from repro.experiments.grid import front_to_payload

            binding.record_done(reply.key, front_to_payload(reply.result))
        if obs.enabled:
            obs.record_span(
                "repetition.run", reply.elapsed,
                repetition=reply.key, attempt=reply.attempt,
            )

    run_kwargs = binding.run_kwargs() if binding is not None else {}
    journal = binding.worker_journal() if binding is not None else None
    grid_id = binding.manifest.grid_id if binding is not None else ""
    telemetry = WorkerTelemetryConfig.from_context(obs, grid_id=grid_id)
    with publish_dataset(dataset, transport=transport, obs=obs) as published:
        with ParallelEngine(
            workers, handle=published.handle, extra=extra, obs=obs,
            journal=journal, telemetry=telemetry,
        ) as engine:
            with obs.span(
                GRID_SPAN_NAME, grid_id=grid_id, cells=len(keys),
                driver="repetitions",
            ):
                engine.run(
                    _repetition_cell,
                    keys,
                    payload_for=lambda r, attempt: None,
                    policy=policy,
                    backoff_for=backoff_for,
                    give_up=give_up,
                    on_result=on_result,
                    **run_kwargs,
                )
