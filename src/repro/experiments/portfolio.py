"""Head-to-head portfolio runs: every registered algorithm, one dataset.

The portfolio driver answers "which optimizer should drive this
trade-off analysis?" empirically: it runs each registered algorithm
(NSGA-II, steady-state NSGA-II, SPEA2, MOEA/D, ε-archive NSGA-II —
see :mod:`repro.core.registry`) over the *same* (system, trace) with
the same budget and seeding, then scores the resulting fronts with the
shared quality indicators and, optionally, with distance-to-optimal
against the exact contention-free baseline of :mod:`repro.exact`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro.analysis.portfolio import PortfolioComparison, compare_portfolio
from repro.core.algorithm import RunHistory
from repro.core.registry import available_algorithms, make_algorithm
from repro.errors import ExperimentError
from repro.exact.baselines import ExactFront, exact_energy_utility_front
from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import DatasetBundle
from repro.heuristics import SEEDING_HEURISTICS
from repro.rng import derive_seed
from repro.sim.evaluator import ScheduleEvaluator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.context import RunContext

__all__ = ["PortfolioResult", "run_portfolio"]


@dataclass(frozen=True)
class PortfolioResult:
    """Outcome of one portfolio run.

    Attributes
    ----------
    dataset_name:
        The dataset every algorithm ran on.
    config:
        The shared experiment configuration (its ``algorithm`` field is
        ignored here — the portfolio supplies the names).
    histories:
        Algorithm name → full :class:`RunHistory` of its run.
    comparison:
        Indicator scores of every final front (see
        :func:`repro.analysis.portfolio.compare_portfolio`).
    exact:
        The exact baseline used for the distance-to-optimal columns, or
        ``None`` when disabled.
    """

    dataset_name: str
    config: ExperimentConfig
    histories: Mapping[str, RunHistory]
    comparison: PortfolioComparison
    exact: Optional[ExactFront] = None

    def render(self) -> str:
        """The comparison as an aligned text table."""
        return self.comparison.render()


def run_portfolio(
    dataset: DatasetBundle,
    config: ExperimentConfig,
    algorithms: Optional[Sequence[str]] = None,
    *,
    exact_epsilon: Optional[float] = 0.05,
    grid_dir: Optional[str] = None,
    obs: Optional["RunContext"] = None,
) -> PortfolioResult:
    """Run every algorithm in *algorithms* over *dataset* and score them.

    Parameters
    ----------
    dataset:
        The (system, trace) bundle.
    config:
        Shared budget and knobs (population size, generations,
        mutation probability, base seed).  Each algorithm gets its own
        RNG stream derived from ``(base_seed, dataset, name)`` — runs
        are deterministic and independent of portfolio order.
    algorithms:
        Registry names to run; default: every registered algorithm.
    exact_epsilon:
        ε-thinning resolution for the exact contention-free baseline
        (relative utility error bound — see
        :func:`repro.exact.exact_energy_utility_front`).  ``None``
        skips the exact baseline entirely, dropping the
        distance-to-optimal columns.
    grid_dir:
        Optional durable grid directory (see
        :mod:`repro.parallel.manifest`).  Each algorithm's run becomes
        a journaled cell whose completed history is persisted; rerunning
        with the same *grid_dir* skips finished algorithms and re-drives
        only the rest (``repro-analyze grid resume`` does this after a
        crash).  ``None`` keeps the zero-overhead in-memory path.
    obs:
        Optional run context; each algorithm's run records its usual
        telemetry under its own label.

    Every algorithm starts from the same seeds: all four heuristic
    allocations (the strongest available warm start) plus random
    fill-up to the population size, mirroring the paper's seeded
    populations.
    """
    names = list(algorithms) if algorithms is not None else list(
        available_algorithms()
    )
    if not names:
        raise ExperimentError("portfolio needs at least one algorithm")
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ExperimentError(f"duplicate portfolio algorithms: {dupes}")

    if obs is None:
        from repro.obs.context import NULL_CONTEXT

        obs = NULL_CONTEXT
    obs = obs.bind(dataset=dataset.name)

    binding = None
    todo = list(names)
    histories: dict[str, RunHistory] = {}
    if grid_dir is not None:
        # Function-level import: repro.experiments.io has an import
        # cycle with the runner result types.
        from repro.experiments.grid import GridBinding
        from repro.experiments.io import history_from_doc, history_to_doc

        grid_spec = {
            "driver": "portfolio",
            "dataset": {"name": dataset.name, "seed": dataset.seed},
            "config": config.to_spec(),
            "algorithms": list(names),
            "exact_epsilon": exact_epsilon,
        }
        binding = GridBinding.open_or_create(
            grid_dir, spec=grid_spec, dataset=dataset,
            keys=list(names), obs=obs,
        )
        for done_name, payload in binding.preloaded.items():
            histories[done_name] = history_from_doc(
                done_name, payload["history"]
            )
        todo = binding.pending_keys(names)

    seeds = [
        SEEDING_HEURISTICS[name]().build(dataset.system, dataset.trace)
        for name in sorted(SEEDING_HEURISTICS)
    ]

    for name in todo:
        evaluator = ScheduleEvaluator(
            dataset.system, dataset.trace, check_feasibility=False, obs=obs
        )
        engine = make_algorithm(
            name,
            evaluator,
            config.algorithm_config(),
            seeds=seeds,
            rng=derive_seed(config.base_seed, dataset.name, name),
            label=name,
            obs=obs,
        )
        if binding is not None:
            binding.mark_running(name)
        try:
            with obs.span("portfolio.run", algorithm=name):
                history = engine.run(
                    generations=config.generations,
                    checkpoints=list(config.checkpoints),
                )
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            if binding is not None:
                binding.mark_failed(name, 1, exc)
            raise
        histories[name] = history
        if binding is not None:
            binding.record_done(name, {"history": history_to_doc(history)})

    # Preloaded cells land first; restore portfolio order so tables and
    # comparisons read identically to an uninterrupted run.
    histories = {name: histories[name] for name in names if name in histories}
    fronts = {
        name: history.final.front_points
        for name, history in histories.items()
    }

    exact = None
    if exact_epsilon is not None:
        evaluator = ScheduleEvaluator(
            dataset.system, dataset.trace, check_feasibility=False
        )
        with obs.span("portfolio.exact_baseline"):
            exact = exact_energy_utility_front(evaluator, epsilon=exact_epsilon)

    comparison = compare_portfolio(fronts, exact=exact)
    return PortfolioResult(
        dataset_name=dataset.name,
        config=config,
        histories=histories,
        comparison=comparison,
        exact=exact,
    )
