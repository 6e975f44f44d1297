"""Shared fixtures for the test suite.

Fixture tiers:

* ``tiny_*`` — handcrafted 3-task-type / 4-machine systems where every
  expected number can be verified by hand;
* ``small_*`` — randomized but seeded 20-80 task scenarios for
  behavioural tests;
* ``ds1_bundle`` / ``expanded_bundle`` — session-scoped paper data sets
  (built once; several minutes of tests share them).
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.experiments.datasets import dataset1, dataset2
from repro.model.system import SystemModel
from repro.sim.batchkernel import batch_reference_row
from repro.sim.evaluator import ScheduleEvaluator
from repro.sim.schedule import ResourceAllocation
from repro.utility.intervals import DecayShape, UtilityClass, UtilityInterval
from repro.utility.presets import assign_presets
from repro.utility.tuf import TimeUtilityFunction
from repro.workload.generator import WorkloadGenerator
from repro.workload.trace import Trace


# -- tiny handcrafted system --------------------------------------------------

TINY_ETC = np.array(
    [
        [10.0, 20.0, 5.0, 40.0],
        [30.0, 15.0, 25.0, 10.0],
        [8.0, 8.0, 8.0, 8.0],
    ]
)
TINY_EPC = np.array(
    [
        [100.0, 50.0, 200.0, 30.0],
        [80.0, 120.0, 90.0, 150.0],
        [60.0, 70.0, 110.0, 40.0],
    ]
)


def make_tiny_system(with_tufs: bool = True) -> SystemModel:
    """3 task types x 4 machine types, one machine each, linear TUFs."""
    system = SystemModel.from_matrices(TINY_ETC.copy(), TINY_EPC.copy())
    if with_tufs:
        tufs = [
            TimeUtilityFunction.linear(priority=10.0, urgency=1.0 / 100.0),
            TimeUtilityFunction.exponential(priority=5.0, urgency=1.0 / 50.0),
            TimeUtilityFunction.hard_deadline(priority=8.0, deadline_seconds=60.0),
        ]
        system = system.with_utility_functions(tufs)
    return system


@pytest.fixture
def tiny_system() -> SystemModel:
    """The handcrafted 3x4 system with TUFs."""
    return make_tiny_system()


@pytest.fixture
def tiny_trace() -> Trace:
    """Six tasks, two of each type, arrivals every 5 seconds."""
    return Trace(
        task_types=np.array([0, 1, 2, 0, 1, 2]),
        arrival_times=np.array([0.0, 5.0, 10.0, 15.0, 20.0, 25.0]),
        window=30.0,
    )


@pytest.fixture
def tiny_evaluator(tiny_system, tiny_trace) -> ScheduleEvaluator:
    """Evaluator over the tiny fixtures."""
    return ScheduleEvaluator(tiny_system, tiny_trace)


# -- seeded random small scenario ----------------------------------------------


@pytest.fixture
def small_system() -> SystemModel:
    """Seeded random 5 task types x 6 machine types system with TUFs."""
    rng = np.random.default_rng(42)
    etc = rng.uniform(5.0, 120.0, size=(5, 6))
    epc = rng.uniform(40.0, 250.0, size=(5, 6))
    system = SystemModel.from_matrices(etc, epc, machines_per_type=[1, 2, 1, 1, 2, 1])
    return system.with_utility_functions(assign_presets(5, 600.0, seed=43))


@pytest.fixture
def small_trace() -> Trace:
    """Eighty tasks over a 600-second window."""
    return WorkloadGenerator.uniform_for(5).generate(80, 600.0, seed=44)


@pytest.fixture
def small_evaluator(small_system, small_trace) -> ScheduleEvaluator:
    """Evaluator over the small fixtures."""
    return ScheduleEvaluator(small_system, small_trace)


class OracleEvaluator(ScheduleEvaluator):
    """An evaluator that answers ``evaluate_batch`` row by row from the
    scalar oracle :func:`~repro.sim.batchkernel.batch_reference_row`.

    Engines run on it exactly as on the production evaluator, so a
    front computed on both must agree bit for bit.
    """

    def evaluate_batch(self, assignments, orders):
        rows = [batch_reference_row(self, a, o)
                for a, o in zip(np.asarray(assignments), np.asarray(orders))]
        return (np.array([r[0] for r in rows], dtype=np.float64),
                np.array([r[1] for r in rows], dtype=np.float64))


@pytest.fixture
def gc_disabled():
    """Cyclic garbage collection off for the test: an object that is
    freed anyway was freed on its reference count alone."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def random_allocation(
    system: SystemModel, trace: Trace, seed: int
) -> ResourceAllocation:
    """A random feasible allocation for (system, trace)."""
    rng = np.random.default_rng(seed)
    T = trace.num_tasks
    assignment = np.empty(T, dtype=np.int64)
    for t in range(T):
        feasible = np.flatnonzero(
            system.feasible_task_machine[trace.task_types[t]]
        )
        assignment[t] = rng.choice(feasible)
    return ResourceAllocation(
        machine_assignment=assignment,
        scheduling_order=rng.permutation(T),
    )


# -- paper data sets (session-scoped: expensive) ---------------------------------


@pytest.fixture(scope="session")
def ds1_bundle():
    """Data set 1 (real data, 250 tasks / 15 min)."""
    return dataset1(seed=123)


@pytest.fixture(scope="session")
def ds2_bundle():
    """Data set 2 (expanded system, 1000 tasks / 15 min)."""
    return dataset2(seed=123)
