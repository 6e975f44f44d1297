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
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

from repro.analysis.portfolio import PortfolioComparison, compare_portfolio
from repro.core.algorithm import RunHistory
from repro.core.registry import available_algorithms, make_algorithm
from repro.errors import AlgorithmLookupError, ExperimentError
from repro.exact.baselines import ExactFront, exact_energy_utility_front
from repro.experiments.cells import CellSpec, run_cells
from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import DatasetBundle
from repro.experiments.runner import RetryPolicy
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
    workers: int = 0,
    transport: str = "auto",
    retry: Optional[RetryPolicy] = None,
    grid_dir: Optional[str] = None,
    fault_hook: Optional[Callable[[str, int], None]] = None,
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
    workers:
        Process-pool size for running the algorithms in parallel; 0
        (default) runs them in process.  Histories are bit-identical
        either way: each algorithm's RNG stream comes from the config
        seed, never from execution order.
    transport:
        Array transport for the pool: ``"auto"``, ``"shm"``, or
        ``"pickle"``; results are bit-identical across transports.
    retry:
        Per-algorithm :class:`~repro.experiments.runner.RetryPolicy`
        (default: 3 attempts, exponential backoff).  An algorithm that
        exhausts its budget raises :class:`~repro.errors.ExperimentError`
        naming it, chained to the last failure — a comparison with a
        missing entrant would rank the rest wrongly.
    grid_dir:
        Optional durable grid directory (see
        :mod:`repro.parallel.manifest`).  Each algorithm's run becomes
        a journaled cell whose completed history is persisted; rerunning
        with the same *grid_dir* skips finished algorithms and re-drives
        only the rest (``repro-analyze grid resume`` does this after a
        crash).  ``None`` keeps the zero-overhead in-memory path.
    fault_hook:
        Test-only ``(algorithm, attempt)`` hook invoked at the top of
        every cell attempt.  Must be picklable when ``workers > 1``.
    obs:
        Optional run context; each algorithm's run records its usual
        telemetry under its own label and a ``portfolio.run`` span.

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
    unknown = [name for name in names if name not in available_algorithms()]
    if unknown:
        raise AlgorithmLookupError(
            f"unknown algorithm(s) {unknown}; registered: "
            f"{', '.join(available_algorithms())}"
        )

    if obs is None:
        from repro.obs.context import NULL_CONTEXT

        obs = NULL_CONTEXT
    obs = obs.bind(dataset=dataset.name)

    grid_spec = None
    if grid_dir is not None:
        grid_spec = {
            "driver": "portfolio",
            "dataset": {"name": dataset.name, "seed": dataset.seed},
            "config": config.to_spec(),
            "algorithms": list(names),
            "exact_epsilon": exact_epsilon,
        }

    def give_up(name: str, attempt: int, exc: BaseException) -> None:
        raise ExperimentError(
            f"portfolio algorithm {name!r} failed after {attempt} "
            f"attempt(s): {type(exc).__name__}: {exc}"
        ) from exc

    histories, quarantined = run_cells(
        CellSpec(
            driver="portfolio", span="portfolio.run", key_attr="algorithm",
            backoff_stream=(config.base_seed, "portfolio-backoff"),
        ),
        _portfolio_cell,
        names,
        dataset=dataset,
        extra={
            "config": config,
            "seeds": [
                SEEDING_HEURISTICS[name]().build(dataset.system, dataset.trace)
                for name in sorted(SEEDING_HEURISTICS)
            ],
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
            f"portfolio algorithms {list(quarantined)} were quarantined "
            f"(each crashed its workers repeatedly); inspect with "
            f"'repro-analyze grid status', re-drive with "
            f"'repro-analyze grid retry-quarantined'."
        )
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


def _portfolio_cell(source, extra: dict, name: str, attempt: int, obs) -> RunHistory:
    """Cell body: one algorithm's run, inline or in a pool worker.

    Each attempt gets its own evaluator; the RNG stream is
    ``derive_seed(base_seed, dataset, name)``, so histories do not
    depend on portfolio order, worker count, or transport.
    """
    fault_hook = extra["fault_hook"]
    if fault_hook is not None:
        fault_hook(name, attempt)
    config: ExperimentConfig = extra["config"]
    engine = make_algorithm(
        name,
        source.make_evaluator(check_feasibility=False, obs=obs),
        config.algorithm_config(),
        seeds=extra["seeds"],
        rng=derive_seed(config.base_seed, source.bundle.name, name),
        label=name,
        obs=obs,
    )
    return engine.run(
        generations=config.generations,
        checkpoints=list(config.checkpoints),
    )
