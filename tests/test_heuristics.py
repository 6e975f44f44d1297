"""Tests for the four seeding heuristics (Section V-B)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.heuristics import (
    SEEDING_HEURISTICS,
    MaxUtility,
    MaxUtilityPerEnergy,
    MinEnergy,
    MinMinCompletionTime,
)
from repro.sim.evaluator import ScheduleEvaluator

from conftest import random_allocation
from oracles import simulate_reference
from test_sim_events_equivalence import random_scenario


ALL = [MinEnergy, MaxUtility, MaxUtilityPerEnergy, MinMinCompletionTime]


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.name)
class TestCommonContract:
    def test_produces_feasible_allocation(self, small_system, small_trace, cls):
        alloc = cls().build(small_system, small_trace)
        assert alloc.num_tasks == small_trace.num_tasks
        alloc.validate_against(
            small_system.num_machines,
            small_system.feasible_task_machine,
            small_trace.task_types,
        )

    def test_deterministic(self, small_system, small_trace, cls):
        a = cls().build(small_system, small_trace)
        b = cls().build(small_system, small_trace)
        np.testing.assert_array_equal(a.machine_assignment, b.machine_assignment)
        np.testing.assert_array_equal(a.scheduling_order, b.scheduling_order)

    def test_evaluates_cleanly(self, small_system, small_trace, small_evaluator, cls):
        alloc = cls().build(small_system, small_trace)
        res = small_evaluator.evaluate(alloc)
        assert res.energy > 0 and res.utility >= 0


class TestMinEnergy:
    def test_every_task_on_min_eec_machine(self, small_system, small_trace):
        alloc = MinEnergy().build(small_system, small_trace)
        eec = small_system.eec_task_machine[small_trace.task_types]
        chosen = eec[np.arange(small_trace.num_tasks), alloc.machine_assignment]
        np.testing.assert_allclose(chosen, eec.min(axis=1))

    def test_global_energy_optimality(self, small_system, small_trace,
                                      small_evaluator):
        """The paper: "This heuristic will create a solution with the
        minimum possible energy consumption" — no random allocation can
        beat it."""
        best = small_evaluator.evaluate(
            MinEnergy().build(small_system, small_trace)
        ).energy
        for seed in range(10):
            alloc = random_allocation(small_system, small_trace, seed=seed)
            assert small_evaluator.evaluate(alloc).energy >= best - 1e-9


class TestMaxUtility:
    def test_beats_min_energy_on_utility(self, small_system, small_trace,
                                         small_evaluator):
        u_max = small_evaluator.evaluate(
            MaxUtility().build(small_system, small_trace)
        ).utility
        u_min_e = small_evaluator.evaluate(
            MinEnergy().build(small_system, small_trace)
        ).utility
        assert u_max >= u_min_e

    def test_greedy_choice_is_locally_optimal_for_first_task(
        self, small_system, small_trace, small_evaluator
    ):
        """The first task (empty queues) must go to a machine whose
        utility is maximal over all machines."""
        alloc = MaxUtility().build(small_system, small_trace)
        tt = int(small_trace.task_types[0])
        arr = float(small_trace.arrival_times[0])
        tuf = small_system.task_types[tt].utility_function
        etc = small_system.etc_task_machine[tt]
        utilities = np.array([
            tuf(arr + etc[m] - arr) if np.isfinite(etc[m]) else -np.inf
            for m in range(small_system.num_machines)
        ])
        chosen = utilities[alloc.machine_assignment[0]]
        assert chosen == pytest.approx(utilities.max())


class TestMaxUtilityPerEnergy:
    def test_intermediate_character(self, small_system, small_trace,
                                    small_evaluator):
        """U/E of the ratio heuristic is at least that of both pure
        heuristics (it directly optimizes the ratio greedily; allow
        a small slack for greedy non-optimality)."""
        def upe(cls):
            res = small_evaluator.evaluate(cls().build(small_system, small_trace))
            return res.utility / res.energy

        ratio = upe(MaxUtilityPerEnergy)
        assert ratio >= upe(MinEnergy) * 0.8
        assert ratio >= 0  # sanity


class TestMinMin:
    def test_matches_naive_min_min(self, tiny_system, tiny_trace):
        """The incremental-cache implementation equals a naive O(T^2 M)
        reference on a small instance."""
        alloc = MinMinCompletionTime().build(tiny_system, tiny_trace)

        # Naive reference.
        etc = tiny_system.etc_task_machine[tiny_trace.task_types]
        arrivals = tiny_trace.arrival_times
        T, M = etc.shape
        available = np.zeros(M)
        unmapped = set(range(T))
        naive_assign = np.empty(T, dtype=int)
        naive_order = np.empty(T, dtype=int)
        for k in range(T):
            best = None
            for t in sorted(unmapped):
                comp = np.maximum(available, arrivals[t]) + etc[t]
                m = int(np.argmin(comp))
                if best is None or comp[m] < best[0]:
                    best = (comp[m], t, m)
            _, t, m = best
            naive_assign[t] = m
            naive_order[t] = k
            unmapped.discard(t)
            available[m] = best[0]

        np.testing.assert_array_equal(alloc.machine_assignment, naive_assign)
        np.testing.assert_array_equal(alloc.scheduling_order, naive_order)

    def test_order_reproduces_queue_semantics(self, small_system, small_trace):
        """Simulated completion times equal the heuristic's internal
        bookkeeping — the scheduling keys encode Min-Min's mapping
        sequence faithfully."""
        alloc = MinMinCompletionTime().build(small_system, small_trace)
        ref = simulate_reference(small_system, small_trace, alloc)
        # Re-derive availability by walking tasks in mapping order.
        etc = small_system.etc_task_machine[small_trace.task_types]
        order = np.argsort(alloc.scheduling_order)
        available = np.zeros(small_system.num_machines)
        for t in order:
            m = int(alloc.machine_assignment[t])
            start = max(available[m], float(small_trace.arrival_times[t]))
            finish = start + float(etc[t, m])
            assert ref.completion_times[t] == pytest.approx(finish)
            available[m] = finish

    def test_best_utility_of_the_four(self, small_system, small_trace,
                                      small_evaluator):
        """On queue-bound workloads Min-Min's reordering typically earns
        the most utility (the paper's Fig. 4 narrative)."""
        utilities = {
            name: small_evaluator.evaluate(
                cls().build(small_system, small_trace)
            ).utility
            for name, cls in SEEDING_HEURISTICS.items()
        }
        assert utilities["min-min-completion-time"] >= utilities["min-energy"]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000))
def test_property_heuristics_feasible_on_random_systems(seed):
    system, trace = random_scenario(seed, 30, 4, 5)
    evaluator = ScheduleEvaluator(system, trace)
    for cls in ALL:
        alloc = cls().build(system, trace)
        res = evaluator.evaluate(alloc)
        assert np.isfinite(res.energy) and np.isfinite(res.utility)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000))
def test_property_min_energy_lower_bounds_all_heuristics(seed):
    system, trace = random_scenario(seed, 30, 4, 5)
    evaluator = ScheduleEvaluator(system, trace)
    energies = {
        cls.name: evaluator.evaluate(cls().build(system, trace)).energy
        for cls in ALL
    }
    for name, e in energies.items():
        assert e >= energies["min-energy"] - 1e-9, name
