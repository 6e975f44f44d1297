"""Pluggable multi-objective algorithm interface (template-method style).

The optimization core is organized the way jMetalPy organizes its
evolutionary templates: an :class:`Algorithm` owns the problem binding
(evaluator, feasibility tables, RNG stream, observability context) and
the run machinery (checkpointed :meth:`Algorithm.run`, criterion-driven
:meth:`Algorithm.run_until`, front snapshots), while
:class:`EvolutionaryAlgorithm` fixes the generational skeleton

    mating selection -> variation -> evaluation -> replacement

as four overridable hooks.  Concrete algorithms — NSGA-II
(:mod:`repro.core.nsga2`), SPEA2 (:mod:`repro.core.spea2`), MOEA/D
(:mod:`repro.core.moead`), the ε-dominance archive variant — are thin
compositions of those hooks; steady-state NSGA-II is nothing but
``offspring_size=1``.

Every hook draws from the single engine RNG in a fixed order, so a
composition that reproduces the legacy NSGA-II hook-for-hook is
bit-identical to the pre-refactor engine (asserted against golden
pre-refactor artifacts by ``tests/test_core_algorithm.py``).

Checkpointing is algorithm-agnostic: :mod:`repro.core.checkpoint`
captures the base state (population, counters, RNG) plus whatever the
algorithm reports from :meth:`Algorithm._capture_algo_state`; restoring
feeds that document back through
:meth:`Algorithm._restore_algo_state`.  Algorithms with no auxiliary
state (NSGA-II, SPEA2) inherit the empty default, which keeps
pre-refactor checkpoint files loading unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.core.dominance import nondominated_mask
from repro.core.operators import (
    FeasibleMachines,
    OperatorConfig,
    VariationOperators,
)
from repro.core.population import GeneSlab, Population
from repro.core.seeding import seeded_initial_population
from repro.core.telemetry import StageTimings
from repro.errors import CheckpointError, OptimizationError
from repro.obs.context import NULL_CONTEXT, RunContext
from repro.rng import SeedLike, ensure_rng
from repro.sim.evaluator import ScheduleEvaluator
from repro.sim.schedule import ResourceAllocation
from repro.types import FloatArray, IntArray

__all__ = [
    "AlgorithmConfig",
    "GenerationSnapshot",
    "RunHistory",
    "Algorithm",
    "EvolutionaryAlgorithm",
]


@dataclass(frozen=True, slots=True, kw_only=True)
class AlgorithmConfig:
    """Parameters shared by every population-based algorithm.

    Absorbs the driver-level ``mutation_probability`` knob that used to
    be duplicated between engine and experiment configs.  Keyword-only:
    every field must be named at the call site.

    Attributes
    ----------
    population_size:
        N — parent population size (paper example: 100).
    offspring_size:
        Offspring produced per generation.  ``None`` (default) keeps
        the legacy generational behaviour — ``N // 2`` crossover
        operations yielding N offspring (odd N clones one extra parent)
        on the historical RNG stream.  ``1`` gives steady-state
        evolution; any explicit value k runs ``ceil(k / 2)`` crossover
        operations truncated to k children.
    operators:
        Crossover/mutation configuration.
    mutation_probability:
        Convenience override: when set, replaces
        ``operators.mutation_probability`` (the knob experiment drivers
        expose).  ``None`` leaves the operator config untouched.
    store_front_solutions:
        Keep the chromosomes (not just objective points) of each
        checkpoint front.  Off by default to bound memory for long
        runs; the final front's chromosomes are always kept.
    """

    population_size: int = 100
    offspring_size: Optional[int] = None
    operators: OperatorConfig = field(default_factory=OperatorConfig)
    mutation_probability: Optional[float] = None
    store_front_solutions: bool = False

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise OptimizationError(
                f"population_size must be >= 2, got {self.population_size}"
            )
        if self.offspring_size is not None and self.offspring_size < 1:
            raise OptimizationError(
                f"offspring_size must be >= 1, got {self.offspring_size}"
            )
        if self.mutation_probability is not None:
            object.__setattr__(
                self,
                "operators",
                replace(
                    self.operators,
                    mutation_probability=self.mutation_probability,
                ),
            )


@dataclass(frozen=True)
class GenerationSnapshot:
    """The rank-1 (Pareto) front of the population at one checkpoint.

    Attributes
    ----------
    generation:
        Generation count at the snapshot (0 = initial population).
    front_points:
        ``(F, 2)`` (energy, utility) points, sorted by energy.
    front_assignments, front_orders:
        ``(F, T)`` chromosome arrays when stored, else ``None``.
    evaluations:
        Cumulative chromosome evaluations at the snapshot.
    """

    generation: int
    front_points: FloatArray
    front_assignments: Optional[IntArray]
    front_orders: Optional[IntArray]
    evaluations: int

    @property
    def front_size(self) -> int:
        """Number of points on the snapshot front."""
        return int(self.front_points.shape[0])

    def best_utility_point(self) -> tuple[float, float]:
        """The (energy, utility) point with maximum utility."""
        i = int(np.argmax(self.front_points[:, 1]))
        return tuple(self.front_points[i])  # type: ignore[return-value]

    def best_energy_point(self) -> tuple[float, float]:
        """The (energy, utility) point with minimum energy."""
        i = int(np.argmin(self.front_points[:, 0]))
        return tuple(self.front_points[i])  # type: ignore[return-value]


@dataclass(frozen=True)
class RunHistory:
    """Everything one algorithm run produced."""

    label: str
    snapshots: tuple[GenerationSnapshot, ...]
    total_generations: int
    total_evaluations: int
    wall_seconds: float

    def snapshot_at(self, generation: int) -> GenerationSnapshot:
        """The snapshot recorded at exactly *generation*."""
        for snap in self.snapshots:
            if snap.generation == generation:
                return snap
        raise OptimizationError(
            f"no snapshot at generation {generation}; available: "
            f"{[s.generation for s in self.snapshots]}"
        )

    @property
    def final(self) -> GenerationSnapshot:
        """The last snapshot (the run's final Pareto front)."""
        return self.snapshots[-1]


class Algorithm:
    """One population-based optimization bound to an evaluator.

    The base class owns everything that is not algorithm-specific: the
    seeded initial population, the RNG stream, the snapshot machinery,
    the checkpointed :meth:`run` loop and the criterion-driven
    :meth:`run_until` loop, stage timings, and observability spans.
    Subclasses implement :meth:`step` (one generation) and may override
    the checkpoint hooks when they carry auxiliary state.

    Parameters
    ----------
    evaluator:
        The (system, trace) schedule evaluator.
    config:
        Engine parameters (default :class:`AlgorithmConfig`).
    seeds:
        Heuristic seed allocations injected into the initial population.
    rng:
        Seed or generator driving all stochastic choices of this run.
    label:
        Name used in reports (defaults to the algorithm's
        :attr:`name`).
    obs:
        Optional :class:`~repro.obs.context.RunContext`.  When enabled
        the engine records spans around the run and its stages
        (absorbing the :class:`~repro.core.telemetry.StageTimings`
        measurements — the very same ``perf_counter`` deltas, so trace
        totals reconcile with ``stage_timings`` exactly), emits
        run/generation/checkpoint events, and feeds the metrics
        registry.  When disabled (default) the hot loop pays one
        predicate per generation; RNG streams are untouched either way.
    """

    #: Registry/reporting name of the algorithm (subclasses override).
    name: str = "algorithm"

    def __init__(
        self,
        evaluator: ScheduleEvaluator,
        config: Optional[AlgorithmConfig] = None,
        seeds: Sequence[ResourceAllocation] = (),
        rng: SeedLike = None,
        label: Optional[str] = None,
        obs: Optional[RunContext] = None,
    ) -> None:
        self.evaluator = evaluator
        self.config = config if config is not None else AlgorithmConfig()
        self.label = label if label is not None else self.name
        self.obs = (obs if obs is not None else NULL_CONTEXT).bind(
            label=self.label
        )
        self._rng = ensure_rng(rng)
        self.feasible = FeasibleMachines.from_system_trace(
            evaluator.system, evaluator.trace
        )
        self.operators = VariationOperators(self.feasible, self.config.operators)
        with self.obs.span("ga.initial_population", seeds=len(seeds)):
            self.population = seeded_initial_population(
                self.feasible, self.config.population_size, list(seeds),
                self._rng,
            )
            self.population.evaluate(evaluator)
        self._evaluations = self.population.size
        self.generation = 0
        #: Per-stage wall-clock accumulator (selection / variation /
        #: evaluate / environmental), read by benchmarks and telemetry.
        self.stage_timings = StageTimings()

    @property
    def evaluations(self) -> int:
        """Chromosome evaluations so far, initial population included."""
        return self._evaluations

    @property
    def population(self) -> Population:
        """The current parent population.

        Its arrays are never overwritten by a later :meth:`step`: when
        they are rows of the engine's :class:`~repro.core.population.\
GeneSlab`, the slab hands them out and writes that buffer no more
        (the next gather into it takes a fresh one).  Readers that need
        only the objectives use :attr:`objectives`, which hands out no
        genes.
        """
        population = self._population
        slot = population._slot
        return population if slot is None else slot[0].hand_out(population)

    @population.setter
    def population(self, population: Population) -> None:
        self._population = population

    @property
    def objectives(self) -> FloatArray:
        """``(N, 2)`` (energy, utility) rows of the current parents."""
        return self._population.objectives

    # -- one generation -------------------------------------------------------

    def step(self) -> None:
        """Advance one generation.  Subclasses must implement."""
        raise NotImplementedError

    # -- checkpoint hooks -----------------------------------------------------

    def _capture_algo_state(self) -> dict[str, Any]:
        """JSON-serializable auxiliary state beyond the base engine state.

        The default (no auxiliary state) keeps checkpoint documents
        identical to the pre-refactor format.  Algorithms that carry
        run-dependent state outside the population — MOEA/D's ideal
        point, the ε-archive's contents — return it here.
        """
        return {}

    def _restore_algo_state(self, doc: dict[str, Any]) -> None:
        """Restore what :meth:`_capture_algo_state` captured.

        Called with ``{}`` for checkpoints written before auxiliary
        state existed; implementations must treat missing keys as the
        initial state.
        """

    def _on_restore(self) -> None:
        """Invalidate derived caches after a checkpoint restore."""

    # -- snapshots -------------------------------------------------------------

    def current_front(self) -> tuple[FloatArray, np.ndarray]:
        """Current rank-1 points (sorted by energy) and their row indices."""
        objectives = self._population.objectives
        mask = nondominated_mask(objectives)
        rows = np.flatnonzero(mask)
        pts = objectives[rows]
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        return pts[order], rows[order]

    def _front_solutions(
        self, rows: np.ndarray
    ) -> tuple[IntArray, IntArray]:
        """Chromosome arrays backing the *rows* of :meth:`current_front`
        (int64 copies)."""
        return (
            self._population.assignments[rows].astype(np.int64),
            self._population.orders[rows].astype(np.int64),
        )

    def _snapshot(self, store_solutions: bool) -> GenerationSnapshot:
        pts, rows = self.current_front()
        assignments = orders = None
        if store_solutions:
            assignments, orders = self._front_solutions(rows)
        if self.obs.enabled:
            self.obs.metrics.gauge(
                "ga_front_size", help="rank-1 front size at last snapshot"
            ).set(pts.shape[0])
            self.obs.event(
                "generation.sampled",
                generation=self.generation,
                front_size=int(pts.shape[0]),
                evaluations=self._evaluations,
            )
        return GenerationSnapshot(
            generation=self.generation,
            front_points=pts,
            front_assignments=assignments,
            front_orders=orders,
            evaluations=self._evaluations,
        )

    # -- full run ---------------------------------------------------------------

    def run(
        self,
        generations: int,
        checkpoints: Optional[Sequence[int]] = None,
        progress: Optional[Callable[[int, "Algorithm"], None]] = None,
        *,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 1,
        resume: bool = False,
    ) -> RunHistory:
        """Run for *generations*, snapshotting at *checkpoints*.

        Parameters
        ----------
        generations:
            Total generations to run ("iterations" in the paper's
            figures).
        checkpoints:
            Sorted generation counts to snapshot; the final generation
            is always snapshotted (with solutions).  Defaults to just
            the final generation.
        progress:
            Optional callback invoked after every generation.
        checkpoint_dir:
            When set, the full engine state is durably persisted into
            this directory (one atomically replaced file per run label)
            so a killed process can resume without losing progress.
        checkpoint_every:
            Persist every this-many generations (default 1: at most one
            generation of work is ever lost).  Raise it when disk IO is
            a measurable fraction of generation time.
        resume:
            Load the label's checkpoint from *checkpoint_dir* (if one
            exists) and continue from it.  The resumed run's objective
            points are bit-identical to an uninterrupted run with the
            same seed.  A checkpoint saved under different run
            parameters raises :class:`~repro.errors.CheckpointError`;
            a damaged checkpoint raises
            :class:`~repro.errors.CorruptArtifactError`.
        """
        if generations < 0:
            raise OptimizationError(f"generations must be >= 0, got {generations}")
        wanted = sorted(set(checkpoints or [])) if checkpoints else []
        for c in wanted:
            if c < 0 or c > generations:
                raise OptimizationError(
                    f"checkpoint {c} outside [0, {generations}]"
                )
        store = None
        if checkpoint_dir is not None:
            if checkpoint_every < 1:
                raise OptimizationError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            from repro.core.checkpoint import CheckpointStore

            store = CheckpointStore(checkpoint_dir, self.label, obs=self.obs)
        run_params = {
            "generations": int(generations),
            "checkpoints": [int(c) for c in wanted],
            "population_size": int(self.config.population_size),
        }
        snapshots: list[GenerationSnapshot] = []
        elapsed_before = 0.0
        obs = self.obs
        resumed = False
        if store is not None and resume and store.exists():
            from repro.core.checkpoint import restore_state

            state = store.load()
            if dict(state.run_params) != run_params:
                raise CheckpointError(
                    f"checkpoint for {self.label!r} was saved under run "
                    f"parameters {dict(state.run_params)}; this run asked for "
                    f"{run_params}"
                )
            restore_state(self, state)
            snapshots = list(state.snapshots)
            elapsed_before = state.elapsed_seconds
            resumed = True
        if obs.enabled:
            # Stage totals accumulated before this run (resume of the
            # same engine): subtracted when emitting this run's
            # aggregate spans so trace totals reconcile per run.
            stage_base = dict(self.stage_timings.totals)
            count_base = dict(self.stage_timings.counts)
            obs.event(
                "run.resumed" if resumed else "run.started",
                generation=self.generation,
                generations=generations,
                evaluations=self._evaluations,
            )
        t0 = time.perf_counter()
        with obs.span("ga.run", generations=generations, resumed=resumed):
            if self.generation == 0 and 0 in wanted and generations > 0:
                snapshots.append(
                    self._snapshot(self.config.store_front_solutions)
                )
            while self.generation < generations:
                self.step()
                if self.generation in wanted and self.generation != generations:
                    snapshots.append(
                        self._snapshot(self.config.store_front_solutions)
                    )
                if progress is not None:
                    progress(self.generation, self)
                if store is not None and (
                    self.generation % checkpoint_every == 0
                    or self.generation == generations
                ):
                    from repro.core.checkpoint import capture_state

                    store.save(
                        capture_state(
                            self,
                            snapshots,
                            elapsed_before + (time.perf_counter() - t0),
                            run_params,
                        )
                    )
            # Final snapshot always, always with solutions.
            snapshots.append(self._snapshot(store_solutions=True))
        wall = elapsed_before + (time.perf_counter() - t0)
        if obs.enabled:
            for stage in sorted(self.stage_timings.totals):
                delta = (
                    self.stage_timings.totals[stage]
                    - stage_base.get(stage, 0.0)
                )
                count = (
                    self.stage_timings.counts[stage]
                    - count_base.get(stage, 0)
                )
                if count:
                    obs.record_span(
                        f"ga.stage_total.{stage}", delta, count=count,
                        aggregate=True,
                    )
            obs.event(
                "run.finished",
                generation=self.generation,
                evaluations=self._evaluations,
                wall_seconds=wall,
            )
            obs.sample_rss()
        return RunHistory(
            label=self.label,
            snapshots=tuple(snapshots),
            total_generations=self.generation,
            total_evaluations=self._evaluations,
            wall_seconds=wall,
        )

    def run_until(
        self,
        criterion,
        snapshot_every: int = 0,
        max_generations: int = 1_000_000,
    ) -> RunHistory:
        """Run until a :class:`~repro.core.termination.TerminationCriterion`
        fires (Algorithm 1's "while termination criterion is not met").

        Parameters
        ----------
        criterion:
            The stopping rule; consulted after every generation with a
            :class:`~repro.core.termination.TerminationContext`.
        snapshot_every:
            Record a front snapshot every this-many generations
            (0 = final only).
        max_generations:
            Hard safety bound.
        """
        from repro.core.termination import TerminationContext

        criterion.reset()
        snapshots: list[GenerationSnapshot] = []
        t0 = time.perf_counter()
        start_generation = self.generation
        while self.generation - start_generation < max_generations:
            self.step()
            completed = self.generation - start_generation
            if snapshot_every and completed % snapshot_every == 0:
                snapshots.append(
                    self._snapshot(self.config.store_front_solutions)
                )
            pts, _ = self.current_front()
            context = TerminationContext(
                generation=completed,
                evaluations=self._evaluations,
                elapsed_seconds=time.perf_counter() - t0,
                front_points=pts,
            )
            if criterion.should_stop(context):
                break
        if snapshots and snapshots[-1].generation == self.generation:
            snapshots.pop()  # replace with a solutions-bearing snapshot
        snapshots.append(self._snapshot(store_solutions=True))
        return RunHistory(
            label=self.label,
            snapshots=tuple(snapshots),
            total_generations=self.generation,
            total_evaluations=self._evaluations,
            wall_seconds=time.perf_counter() - t0,
        )


class EvolutionaryAlgorithm(Algorithm):
    """The generational template: select, vary, evaluate, replace.

    :meth:`step` fixes the stage order and the RNG draw discipline
    (selection draws strictly before variation draws); subclasses slot
    in behaviour through three hooks:

    * :meth:`_mating_selection` — choose crossover parent pairs (or
      ``None`` for the paper's uniform-random parents);
    * :meth:`_variation` — produce offspring chromosomes (default: the
      paper's range-swap crossover + machine/order mutation, honouring
      ``config.offspring_size``);
    * :meth:`_replacement` — build the next parent population from
      parents and evaluated offspring (environmental selection).

    The stage timings and observability spans recorded here are the
    contract the benchmarks and the trace CLI consume; subclasses
    should not re-implement :meth:`step`.
    """

    #: Gene slab of the concatenate-then-select replacement, built by
    #: :meth:`_gene_slab` at the first generation.
    _slab: Optional[GeneSlab] = None

    def _offspring_pairs(self) -> int:
        """Crossover operations needed for one generation's offspring.

        ``offspring_size=None`` reproduces the legacy generational
        count (``N // 2``; odd N is completed by a cloned parent inside
        the crossover), an explicit k needs ``ceil(k / 2)`` operations.
        """
        k = self.config.offspring_size
        if k is None:
            return self._population.size // 2
        return (k + 1) // 2

    def _gene_slab(self) -> GeneSlab:
        """The engine's gene slab, built at the first generation: parent
        rows plus every row one generation's crossover writes."""
        slab = self._slab
        if slab is None:
            n = self._population.size
            k = self.config.offspring_size
            rows = n + (n if k is None else 2 * self._offspring_pairs())
            slab = self._slab = GeneSlab(rows, self._population.num_tasks)
        return slab

    # -- hooks -----------------------------------------------------------------

    def _mating_selection(self, parents: Population) -> Optional[IntArray]:
        """Parent pairs for crossover, or ``None`` for uniform draws."""
        return None

    def _variation(
        self,
        parents: Population,
        parent_pairs: Optional[IntArray],
        out: tuple[IntArray, IntArray],
        base_out: IntArray,
    ) -> tuple[IntArray, IntArray]:
        """Offspring chromosomes from *parents* (crossover + mutation),
        written into the leading rows of the *out* buffers and returned
        as views of them; *base_out* receives each child's base parent
        row (the parent it was copied from before variation).

        *base_out* arrives zero-filled: an override that leaves it alone
        has every child evaluated as an edit of parent 0, which is exact
        for any child and cheap only for children close to that parent.
        """
        child_assign, child_order = self.operators.crossover_population(
            parents.assignments, parents.orders, self._rng,
            parent_pairs=parent_pairs,
            n_offspring=self.config.offspring_size,
            out=out, base_out=base_out,
        )
        return self.operators.mutate_population(
            child_assign, child_order, self._rng
        )

    def _replacement(
        self, parents: Population, offspring: Population
    ) -> Population:
        """Next parent population from *parents* and evaluated *offspring*."""
        raise NotImplementedError

    # -- the template ----------------------------------------------------------

    def step(self) -> None:
        """Advance one generation through the four-stage template."""
        timings = self.stage_timings
        slab = self._gene_slab()
        t0 = time.perf_counter()
        # Parents are the slab's live front rows (copied in only after
        # a restore or an outside assignment); offspring are written
        # straight into the rows after them, and evaluated as edits of
        # their base parents.
        parents = slab.adopt(self._population)
        parent_pairs = self._mating_selection(parents)
        t1 = time.perf_counter()
        n = parents.size
        bases = np.zeros(slab.rows - n, dtype=np.int64)
        child_assign, _ = self._variation(parents, parent_pairs,
                                          slab.tail(n), bases)
        t2 = time.perf_counter()
        k = child_assign.shape[0]
        offspring = slab.offspring(n, k)
        offspring.evaluate(self.evaluator, parents, bases[:k])
        self._evaluations += offspring.size
        t3 = time.perf_counter()

        self._population = self._replacement(parents, offspring)
        self.generation += 1
        t4 = time.perf_counter()
        timings.record("selection", t1 - t0)
        timings.record("variation", t2 - t1)
        timings.record("evaluate", t3 - t2)
        timings.record("environmental", t4 - t3)
        obs = self.obs
        if obs.enabled:
            # The generation span reuses the stage perf_counter deltas —
            # no extra clock reads on the hot path.
            obs.record_span(
                "ga.generation", t4 - t0, generation=self.generation
            )
            if obs.debug:
                gen = self.generation
                obs.record_span("ga.stage.selection", t1 - t0, generation=gen)
                obs.record_span("ga.stage.variation", t2 - t1, generation=gen)
                obs.record_span("ga.stage.evaluate", t3 - t2, generation=gen)
                obs.record_span(
                    "ga.stage.environmental", t4 - t3, generation=gen
                )
            obs.metrics.counter(
                "ga_generations_total", help="generations advanced"
            ).inc()
