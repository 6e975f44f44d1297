"""Robustness of allocations under ETC estimation error.

ETC entries are *estimates* ("Estimated Time to Compute"); real
runtimes deviate.  The robustness literature the paper cites (Apodaca
et al. 2011; Abbasi et al. 2006) asks how allocations behave under
that uncertainty.  This module answers it by Monte-Carlo:

* actual execution time = ``ETC × ξ`` with per-task multiplicative
  noise ``ξ`` drawn from a mean-1 lognormal (σ parameterizes estimate
  quality; power is unchanged, so actual energy = ``EPC × actual
  time``, scaling with the same ξ);
* each noise sample re-simulates the allocation's queues (the
  recurrence is re-run, so delays *cascade* — the interesting part);
* :class:`RobustnessReport` summarizes the induced (energy, utility)
  distributions and the probability of staying within a tolerance of
  the nominal utility.

:func:`front_robustness` applies this to every chromosome of a final
NSGA-II snapshot, exposing which front regions are fragile — typically
the max-utility end, whose tightly packed queues amplify overruns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.nsga2 import GenerationSnapshot
from repro.errors import ScheduleError
from repro.model.system import SystemModel
from repro.rng import SeedLike, ensure_rng
from repro.sim.batchkernel import fold_queues, queue_order, row_totals
from repro.sim.schedule import ResourceAllocation
from repro.types import FloatArray, IntArray
from repro.utility.vectorized import TUFTable
from repro.workload.trace import Trace

__all__ = ["NoiseModel", "RobustnessReport", "RobustnessAnalyzer", "front_robustness"]


@dataclass(frozen=True, slots=True)
class NoiseModel:
    """Mean-1 lognormal multiplicative runtime noise.

    Attributes
    ----------
    sigma:
        Log-space standard deviation; 0.1 ≈ ±10% typical error, 0.5 ≈
        heavy-tailed estimates.
    """

    sigma: float = 0.2

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ScheduleError(f"sigma must be >= 0, got {self.sigma}")

    def sample(self, shape, rng: np.random.Generator) -> FloatArray:
        """Draw mean-1 lognormal factors of the given shape."""
        if self.sigma == 0:
            return np.ones(shape)
        # mean of lognormal(mu, sigma) is exp(mu + sigma^2/2): set mu so
        # the mean is exactly 1.
        mu = -0.5 * self.sigma**2
        return rng.lognormal(mean=mu, sigma=self.sigma, size=shape)


@dataclass(frozen=True)
class RobustnessReport:
    """Monte-Carlo outcome distribution of one allocation.

    Attributes
    ----------
    nominal_energy, nominal_utility:
        Noise-free objective values.
    mean_energy, std_energy, mean_utility, std_utility:
        Sample statistics over noise draws.
    utility_q05, utility_q95:
        5th/95th percentile of realized utility.
    prob_within_tolerance:
        Fraction of samples whose utility stayed above
        ``(1 − tolerance) × nominal_utility``.
    samples:
        Number of Monte-Carlo draws.
    """

    nominal_energy: float
    nominal_utility: float
    mean_energy: float
    std_energy: float
    mean_utility: float
    std_utility: float
    utility_q05: float
    utility_q95: float
    prob_within_tolerance: float
    samples: int

    @property
    def utility_degradation(self) -> float:
        """Relative mean-utility loss versus nominal (>= -eps)."""
        if self.nominal_utility == 0:
            return 0.0
        return 1.0 - self.mean_utility / self.nominal_utility


class RobustnessAnalyzer:
    """Monte-Carlo robustness evaluation for one (system, trace)."""

    def __init__(
        self,
        system: SystemModel,
        trace: Trace,
        noise: NoiseModel = NoiseModel(),
        samples: int = 200,
        tolerance: float = 0.1,
        seed: SeedLike = None,
    ) -> None:
        if samples < 1:
            raise ScheduleError(f"samples must be >= 1, got {samples}")
        if not (0.0 <= tolerance < 1.0):
            raise ScheduleError(f"tolerance must be in [0, 1); got {tolerance}")
        trace.validate_against(system.num_task_types)
        self.system = system
        self.trace = trace
        self.noise = noise
        self.samples = samples
        self.tolerance = tolerance
        self._rng = ensure_rng(seed)
        self._task_types = trace.task_types
        self._arrivals = trace.arrival_times
        self._etc_rows = system.etc_task_machine[self._task_types]
        self._epc_rows = system.epc_task_machine[self._task_types]
        self._tuf = TUFTable.from_system(system)
        self._row_index = np.arange(trace.num_tasks)

    def analyze(self, allocation: ResourceAllocation) -> RobustnessReport:
        """Monte-Carlo report for one allocation.

        All noise draws are evaluated in a single pass (see
        :meth:`_simulate`).
        """
        if allocation.num_tasks != self.trace.num_tasks:
            raise ScheduleError(
                f"allocation covers {allocation.num_tasks} tasks; trace has "
                f"{self.trace.num_tasks}"
            )
        T = self.trace.num_tasks
        S = self.samples
        assignment = allocation.machine_assignment
        if not np.all(np.isfinite(self._etc_rows[self._row_index, assignment])):
            raise ScheduleError("allocation places tasks on infeasible machines")

        # Nominal (noise-free) evaluation, then S perturbed ones.
        (nominal_energy,), (nominal_utility,), _ = self._simulate(
            assignment, allocation.scheduling_order, np.ones((1, T))
        )
        factors = self.noise.sample((S, T), self._rng)
        energies, utilities, _ = self._simulate(
            assignment, allocation.scheduling_order, factors
        )
        within = np.mean(
            utilities >= (1.0 - self.tolerance) * nominal_utility
        )
        return RobustnessReport(
            nominal_energy=float(nominal_energy),
            nominal_utility=float(nominal_utility),
            mean_energy=float(energies.mean()),
            std_energy=float(energies.std()),
            mean_utility=float(utilities.mean()),
            std_utility=float(utilities.std()),
            utility_q05=float(np.quantile(utilities, 0.05)),
            utility_q95=float(np.quantile(utilities, 0.95)),
            prob_within_tolerance=float(within),
            samples=S,
        )

    def _simulate(
        self, assignment: IntArray, order: IntArray, factors: FloatArray
    ) -> tuple[FloatArray, FloatArray, FloatArray]:
        """Per-row ``(energies, utilities, finish)`` of one allocation
        under the ``(R, T)`` runtime *factors*.

        The R rows are laid out like R chromosomes sharing the
        allocation but with scaled execution times, and go through the
        simulator's queue fold in one pass.
        """
        R, T = factors.shape
        M = self.system.num_machines
        exec_times = self._etc_rows[self._row_index, assignment] * factors
        power = self._epc_rows[self._row_index, assignment]
        seg = (assignment + (np.arange(R, dtype=np.int64) * M)[:, None]).ravel()
        perm = queue_order(seg, np.tile(order, R))
        task = perm % T
        e = exec_times.reshape(-1)[perm]
        folds = fold_queues(
            seg[perm], e, self._arrivals[task], self._task_types[task],
            e * power[task], self._tuf,
        )
        per_queue = np.zeros((2, R * M))
        per_queue[:, folds.ids] = folds.ue
        utilities, energies = row_totals(per_queue.reshape(2, R, M))
        finish = np.empty(R * T)
        finish[perm] = folds.finish
        return energies, utilities, finish.reshape(R, T)


def front_robustness(
    analyzer: RobustnessAnalyzer, snapshot: GenerationSnapshot
) -> list[RobustnessReport]:
    """Robustness report for every chromosome of a front snapshot.

    The snapshot must carry solutions (``store_front_solutions`` or a
    final snapshot).
    """
    if snapshot.front_assignments is None or snapshot.front_orders is None:
        raise ScheduleError(
            "snapshot does not carry chromosomes; use a final snapshot or "
            "enable store_front_solutions"
        )
    reports = []
    for i in range(snapshot.front_size):
        alloc = ResourceAllocation(
            machine_assignment=snapshot.front_assignments[i],
            scheduling_order=snapshot.front_orders[i],
        )
        reports.append(analyzer.analyze(alloc))
    return reports
