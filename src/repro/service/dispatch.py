"""The windowed online dispatch loop.

Each :class:`~repro.service.stream.WindowBatch` is re-optimized by a
(warm-started) evolutionary run over the pinned-prefix horizon
(:mod:`repro.service.window`), a dispatch point is chosen from the
window's Pareto front under the energy budget, the winning chromosome's
free genes are committed to the ledger, and the front is absorbed into
an anytime ε-Pareto archive.  Cross-window reuse happens on three
levels:

* **Seed population** — the next window's algorithm starts from
  repair-mapped copies of this window's survivors
  (:func:`~repro.core.seeding.repair_mapped_seeds`), not from random
  chromosomes.
* **Prefix state** — the next window's evaluator carries this
  window's committed-prefix folds forward by the tasks it committed,
  so the committed prefix (identical in every chromosome) is never
  re-evaluated.
* **Archive** — every window's front accumulates into one bounded
  ε-dominance archive, so the dispatch policy always has the best
  energy/utility trade-off curve seen so far.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.core.archive import EpsilonParetoArchive
from repro.core.operators import FeasibleMachines
from repro.core.registry import make_algorithm
from repro.core.seeding import repair_mapped_seeds
from repro.errors import ScheduleError
from repro.rng import derive_seed
from repro.service.stream import WindowBatch
from repro.service.window import CommittedLedger, PrefixState, WindowEvaluator
from repro.types import FloatArray
from repro.utility.vectorized import TUFTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.system import SystemModel
    from repro.obs.context import RunContext

__all__ = ["ServiceConfig", "WindowReport", "ServiceResult", "DispatchService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the online dispatch service.

    Attributes
    ----------
    algorithm:
        Registry name of the per-window optimizer (default NSGA-II).
    population_size, generations, mutation_probability:
        Per-window evolutionary budget.  Warm starts reach the
        cold-restart front quality in a fraction of the generations —
        see ``BENCH_online_service.json``.
    warm_start:
        Seed each window from the previous window's survivors
        (repair-mapped); ``False`` re-seeds randomly every window (the
        cold-restart baseline).
    carryover:
        Maximum donor chromosomes carried between windows (front rows
        first), capped at the population size.
    energy_budget:
        Cumulative energy budget (joules) over the whole stream; the
        dispatch policy picks the max-utility front point whose
        *cumulative* energy fits, falling back to the min-energy point
        (flagged in the report) when none does.  ``None`` = argmax
        utility, unconstrained.
    compact_every:
        Attempt ledger compaction every this many windows (0 = never).
        Compaction bounds horizon growth for indefinite streams; the
        next window folds its prefix state from the ledger again.
    archive_epsilon_rel:
        ε-box size for the Pareto archive, relative to the first
        window's front ranges per axis.
    seed:
        Base seed; window *k*'s optimizer derives its stream from
        ``derive_seed(seed, "service-opt", k)``.
    """

    algorithm: str = "nsga2"
    population_size: int = 32
    generations: int = 12
    mutation_probability: float = 0.25
    warm_start: bool = True
    carryover: int = 16
    energy_budget: Optional[float] = None
    compact_every: int = 8
    archive_epsilon_rel: float = 1e-3
    seed: int = 2013

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ScheduleError(
                f"population_size must be >= 2, got {self.population_size}"
            )
        if self.generations < 0:
            raise ScheduleError(
                f"generations must be >= 0, got {self.generations}"
            )
        if self.carryover < 0:
            raise ScheduleError(f"carryover must be >= 0, got {self.carryover}")
        if self.compact_every < 0:
            raise ScheduleError(
                f"compact_every must be >= 0, got {self.compact_every}"
            )
        if self.energy_budget is not None and self.energy_budget < 0:
            raise ScheduleError(
                f"energy_budget must be >= 0, got {self.energy_budget}"
            )
        if self.archive_epsilon_rel <= 0:
            raise ScheduleError(
                f"archive_epsilon_rel must be > 0, got "
                f"{self.archive_epsilon_rel}"
            )


@dataclass(frozen=True)
class WindowReport:
    """Everything recorded about one dispatch window.

    Attributes
    ----------
    kernel_adopted:
        The window's evaluator carried the previous window's prefix
        state forward instead of folding the whole ledger (``False``
        for the first busy window and the first one after a
        compaction).
    reuse_rate:
        This window's share of evaluated horizon elements served by
        the committed-prefix state rather than folded: committed tasks
        over horizon tasks (0.0 when nothing was committed yet).
    """

    index: int
    start: float
    end: float
    tasks: int
    evaluations: int
    front_points: FloatArray
    chosen_energy: float
    chosen_utility: float
    budget_exceeded: bool
    dispatch_seconds: float
    warm_seeds: int
    kernel_adopted: bool
    reuse_rate: float
    compacted: int
    archive_size: int

    @property
    def idle(self) -> bool:
        """Whether the window had no arrivals."""
        return self.tasks == 0


@dataclass(frozen=True)
class ServiceResult:
    """Aggregate outcome of a service run."""

    reports: tuple[WindowReport, ...]
    total_energy: float
    total_utility: float
    tasks_dispatched: int
    wall_seconds: float
    mean_flow_time: float
    archive_points: FloatArray

    @property
    def tasks_per_second(self) -> float:
        """Sustained dispatch throughput (wall clock)."""
        return (
            self.tasks_dispatched / self.wall_seconds
            if self.wall_seconds > 0 else 0.0
        )

    def dispatch_latency(self, percentile: float) -> float:
        """Percentile of per-window dispatch wall seconds (busy windows)."""
        busy = [r.dispatch_seconds for r in self.reports if not r.idle]
        if not busy:
            return 0.0
        return float(np.percentile(np.asarray(busy), percentile))

    @property
    def objectives(self) -> tuple[float, float]:
        """``(energy, utility)`` for comparison with offline fronts."""
        return (self.total_energy, self.total_utility)


class DispatchService:
    """Long-running windowed re-optimization over an arrival stream.

    Feed windows via :meth:`run` (an iterable of
    :class:`~repro.service.stream.WindowBatch`) or one at a time via
    :meth:`process_window`; state (ledger, archive, carryover
    population, prefix state) persists across calls, so a driver can
    interleave windows with its own logic.
    """

    def __init__(
        self,
        system: "SystemModel",
        config: Optional[ServiceConfig] = None,
        obs: Optional["RunContext"] = None,
    ) -> None:
        from repro.obs.context import NULL_CONTEXT

        self.system = system
        self.config = config if config is not None else ServiceConfig()
        self.obs = obs if obs is not None else NULL_CONTEXT
        self.ledger = CommittedLedger()
        self.archive: Optional[EpsilonParetoArchive] = None
        self.reports: list[WindowReport] = []
        self._tuf_table = TUFTable.from_system(system)
        self._prefix: Optional[PrefixState] = None
        self._elements_total = 0
        self._elements_reused = 0
        self._prev_types = None
        self._prev_donors = None
        self._flow_time_sum = 0.0
        self._wall_seconds = 0.0
        self._next_window = 0

    # -- archive -----------------------------------------------------------

    def _ensure_archive(self, points: FloatArray) -> EpsilonParetoArchive:
        if self.archive is None:
            spans = points.max(axis=0) - points.min(axis=0)
            scale = np.maximum(np.abs(points).max(axis=0), 1.0)
            eps = np.where(
                spans > 0, spans, scale
            ) * self.config.archive_epsilon_rel
            eps = np.maximum(eps, 1e-12)
            self.archive = EpsilonParetoArchive(
                epsilons=(float(eps[0]), float(eps[1]))
            )
        return self.archive

    # -- dispatch policy ---------------------------------------------------

    def _choose(self, points: FloatArray) -> tuple[int, str]:
        """Front row to dispatch and the rule that picked it: max
        utility within the cumulative energy budget, else the
        min-energy point (flagged as exceeding the budget)."""
        budget = self.config.energy_budget
        if budget is not None:
            fits = np.flatnonzero(points[:, 0] <= budget)
            if fits.size:
                return int(fits[np.argmax(points[fits, 1])]), "budget"
            return int(np.argmin(points[:, 0])), "budget-fallback-min-energy"
        return int(np.argmax(points[:, 1])), "max-utility"

    # -- main loop ---------------------------------------------------------

    def run(self, batches: Iterable[WindowBatch]) -> ServiceResult:
        """Process every window in *batches* and summarize."""
        for batch in batches:
            self.process_window(batch)
        return self.result()

    def process_window(self, batch: WindowBatch) -> WindowReport:
        """Optimize, dispatch, and commit one window."""
        cfg = self.config
        if batch.index != self._next_window:
            raise ScheduleError(
                f"windows must be processed in order: expected "
                f"{self._next_window}, got {batch.index}"
            )
        self._next_window += 1
        t0 = time.perf_counter()
        compacted = 0
        if (
            cfg.compact_every
            and batch.index
            and batch.index % cfg.compact_every == 0
        ):
            compacted = self.ledger.compact(batch.start)
            if compacted:
                # Queue prefixes lost their heads: the carried prefix
                # state belongs to the old epoch.
                self._prefix = None
        if batch.count == 0:
            report = self._idle_report(batch, compacted, t0)
            self._record(report)
            return report

        evaluator = WindowEvaluator(
            self.system, self.ledger, batch,
            tuf_table=self._tuf_table,
            carried=self._prefix,
            obs=self.obs,
        )
        seeds = []
        if cfg.warm_start and self._prev_donors is not None and cfg.carryover:
            feasible = FeasibleMachines.from_system_trace(
                self.system, evaluator.trace
            )
            seeds = repair_mapped_seeds(
                self._prev_types, self._prev_donors,
                batch.task_types, feasible,
                rng_seed=derive_seed(cfg.seed, "service-carry", batch.index),
                max_seeds=min(cfg.carryover, cfg.population_size),
                arrival_order_first=True,
            )
        algorithm = make_algorithm(
            cfg.algorithm, evaluator,
            self._algorithm_config(),
            seeds=seeds,
            rng=derive_seed(cfg.seed, "service-opt", batch.index),
            label=f"window-{batch.index}",
            obs=self.obs,
        )
        algorithm.run(cfg.generations)
        points, rows = algorithm.current_front()
        sel, rule = self._choose(points)
        row = int(rows[sel])
        population = algorithm.population
        assignment = population.assignments[row].astype(np.int64)
        order = population.orders[row].astype(np.int64)

        full = evaluator.evaluate_full(assignment, order)
        finishes = full.completion_times
        self._flow_time_sum += float(
            (finishes - batch.arrival_times).sum()
        )
        self.ledger.commit(
            batch, assignment, evaluator.absolute_orders(order),
            finishes, full.task_energies, full.task_utilities,
        )
        archive_size = self._ensure_archive(points).update(
            points, payloads=[batch.index] * points.shape[0]
        )

        # Carryover for the next window: front rows first, then the
        # rest of the final population, all in free-gene space.
        rest = np.ones(len(population), dtype=bool)
        rest[rows] = False
        donor_rows = np.concatenate([rows, np.flatnonzero(rest)])
        self._prev_types = batch.task_types
        self._prev_donors = population.assignments[donor_rows].astype(np.int64)
        self._prefix = evaluator.prefix
        stats = evaluator.cache_stats
        self._elements_total += stats["elements_total"]
        self._elements_reused += stats["elements_reused"]

        report = WindowReport(
            index=batch.index, start=batch.start, end=batch.end,
            tasks=batch.count,
            evaluations=algorithm.evaluations,
            front_points=points,
            chosen_energy=float(points[sel, 0]),
            chosen_utility=float(points[sel, 1]),
            budget_exceeded=rule == "budget-fallback-min-energy",
            dispatch_seconds=time.perf_counter() - t0,
            warm_seeds=len(seeds),
            kernel_adopted=evaluator.kernel_adopted,
            reuse_rate=stats["reuse_rate"],
            compacted=compacted,
            archive_size=archive_size,
        )
        self._record(report)
        if self.obs.enabled:
            self.obs.event(
                "dispatch.decision", window=report.index,
                energy=report.chosen_energy, utility=report.chosen_utility,
                rule=rule, budget=cfg.energy_budget,
                budget_exceeded=report.budget_exceeded,
                front_size=int(points.shape[0]),
            )
        return report

    def _algorithm_config(self):
        from repro.core.algorithm import AlgorithmConfig

        return AlgorithmConfig(
            population_size=self.config.population_size,
            mutation_probability=self.config.mutation_probability,
        )

    def _idle_report(
        self, batch: WindowBatch, compacted: int, t0: float
    ) -> WindowReport:
        return WindowReport(
            index=batch.index, start=batch.start, end=batch.end, tasks=0,
            evaluations=0, front_points=np.empty((0, 2)),
            chosen_energy=0.0, chosen_utility=0.0, budget_exceeded=False,
            dispatch_seconds=time.perf_counter() - t0,
            warm_seeds=0, kernel_adopted=False, reuse_rate=0.0,
            compacted=compacted,
            archive_size=len(self.archive) if self.archive else 0,
        )

    def _record(self, report: WindowReport) -> None:
        self.reports.append(report)
        self._wall_seconds += report.dispatch_seconds
        obs = self.obs
        if not obs.enabled:
            return
        obs.record_span(
            "service.window", report.dispatch_seconds,
            index=report.index, tasks=report.tasks,
            front_size=int(report.front_points.shape[0]),
            warm_seeds=report.warm_seeds,
            kernel_adopted=report.kernel_adopted,
            reuse_rate=report.reuse_rate,
            compacted=report.compacted,
        )
        metrics = obs.metrics
        metrics.histogram(
            "service_dispatch_seconds",
            help="wall-clock from window open to committed dispatch",
            unit="seconds",
        ).observe(report.dispatch_seconds)
        metrics.counter(
            "service_tasks_dispatched_total",
            help="tasks committed to machine queues",
        ).inc(report.tasks)
        metrics.gauge(
            "service_queue_depth",
            help="committed tasks still on the horizon (ledger backlog) "
            "after the latest window",
        ).set(self.ledger.active)
        metrics.gauge(
            "service_throughput_tasks_per_second",
            help="dispatched tasks per wall-clock second, lifetime",
        ).set(
            self.ledger.dispatched_total / self._wall_seconds
            if self._wall_seconds > 0 else 0.0
        )
        metrics.gauge(
            "service_archive_size",
            help="points in the anytime epsilon-Pareto archive",
        ).set(report.archive_size)
        metrics.gauge(
            "service_reuse_rate",
            help="lifetime fraction of evaluated horizon elements served "
            "by committed-prefix state",
        ).set(
            self._elements_reused / self._elements_total
            if self._elements_total else 0.0
        )

    # -- summary -----------------------------------------------------------

    def result(self) -> ServiceResult:
        """Aggregate everything processed so far."""
        dispatched = self.ledger.dispatched_total
        return ServiceResult(
            reports=tuple(self.reports),
            total_energy=self.ledger.total_energy,
            total_utility=self.ledger.total_utility,
            tasks_dispatched=dispatched,
            wall_seconds=self._wall_seconds,
            mean_flow_time=(
                self._flow_time_sum / dispatched if dispatched else 0.0
            ),
            archive_points=(
                self.archive.front() if self.archive is not None
                else np.empty((0, 2))
            ),
        )
