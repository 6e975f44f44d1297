"""Parameter sweeps over workload intensity.

The paper fixes three (task count, window) combinations; this module
generalizes into a sweep over **oversubscription** — offered load
relative to capacity — exposing how the utility/energy trade-off's
character depends on load:

* under light load every allocation completes everything promptly, so
  the front is short and flat (energy is the only real lever);
* past saturation, queueing makes utility decay bite, the front
  stretches, and the efficient region moves.

:func:`oversubscription_sweep` reuses one system across traces of
growing task count and reports, per load point, the optimized front's
utility fraction (earned / ideal), energy per task at the efficient
point, and front extent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


from repro.analysis.efficiency import max_utility_per_energy_region
from repro.analysis.pareto_front import ParetoFront
from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.errors import ExperimentError
from repro.heuristics import MinMinCompletionTime
from repro.model.system import SystemModel
from repro.rng import derive_seed
from repro.sim.evaluator import ScheduleEvaluator
from repro.workload.generator import WorkloadGenerator

__all__ = ["LoadPoint", "oversubscription_sweep", "offered_load"]


@dataclass(frozen=True)
class LoadPoint:
    """Sweep outcome at one task count.

    Attributes
    ----------
    num_tasks:
        Trace size.
    offered_load:
        Mean offered work (Σ mean ETC) divided by capacity
        (machines × window) — > 1 means oversubscribed.
    utility_fraction:
        Best front utility divided by the ideal (every task at max
        priority).
    energy_per_task_at_peak:
        Energy per task (J) at the max-U/E front point.
    front:
        The optimized Pareto front.
    """

    num_tasks: int
    offered_load: float
    utility_fraction: float
    energy_per_task_at_peak: float
    front: ParetoFront


def offered_load(system: SystemModel, num_tasks: int, window: float) -> float:
    """Offered work / capacity for a uniform task mix.

    Mean work per task is the grand mean of feasible ETC entries;
    capacity is ``num_machines × window`` machine-seconds.
    """
    etc = system.etc.values[system.etc.feasible]
    mean_work = float(etc.mean())
    return num_tasks * mean_work / (system.num_machines * window)


def oversubscription_sweep(
    system: SystemModel,
    window: float,
    task_counts: Sequence[int],
    generations: int = 60,
    population_size: int = 40,
    base_seed: int = 2013,
) -> list[LoadPoint]:
    """Sweep trace sizes over one system (see module docstring).

    Each load point gets its own trace (derived seed), a min-min-seeded
    NSGA-II run, and a summarized front.
    """
    if not task_counts:
        raise ExperimentError("at least one task count is required")
    if window <= 0:
        raise ExperimentError(f"window must be positive, got {window}")
    points: list[LoadPoint] = []
    generator = WorkloadGenerator.uniform_for(system.num_task_types)
    for count in task_counts:
        if count < 1:
            raise ExperimentError(f"task count must be >= 1, got {count}")
        trace = generator.generate(
            count, window, seed=derive_seed(base_seed, "sweep", count)
        )
        evaluator = ScheduleEvaluator(system, trace, check_feasibility=False)
        seed_alloc = MinMinCompletionTime().build(system, trace)
        ga = NSGA2(
            evaluator,
            AlgorithmConfig(population_size=population_size),
            seeds=[seed_alloc],
            rng=derive_seed(base_seed, "sweep-ga", count),
        )
        history = ga.run(generations)
        front = ParetoFront(
            points=history.final.front_points, label=f"{count}-tasks"
        )
        ideal = evaluator.tuf_table.utility_upper_bound(trace.task_types)
        region = max_utility_per_energy_region(front)
        points.append(
            LoadPoint(
                num_tasks=count,
                offered_load=offered_load(system, count, window),
                utility_fraction=float(front.utility_range[1]) / ideal,
                energy_per_task_at_peak=region.peak_energy / count,
                front=front,
            )
        )
    return points
