"""Tests for the online dispatcher extension."""

import numpy as np
import pytest

from repro.analysis.pareto_front import ParetoFront
from repro.errors import ScheduleError
from repro.extensions.online import (
    DROP,
    BudgetedUtilityPolicy,
    DispatchContext,
    MaxUtilityPolicy,
    OnlineDispatcher,
    UtilityPerEnergyPolicy,
    budget_from_front,
)
from repro.heuristics import MaxUtility, MaxUtilityPerEnergy
from repro.sim.evaluator import ScheduleEvaluator


@pytest.fixture
def dispatcher(small_system, small_trace):
    return OnlineDispatcher(small_system, small_trace)


class TestUnbudgetedPolicies:
    def test_max_utility_matches_offline_greedy(self, small_system, small_trace,
                                                dispatcher, small_evaluator):
        """With no budget, online Max Utility makes exactly the offline
        Max Utility seed's decisions (same greedy, same information)."""
        outcome = dispatcher.run(MaxUtilityPolicy())
        seed = MaxUtility().build(small_system, small_trace)
        np.testing.assert_array_equal(
            outcome.machine_assignment, seed.machine_assignment
        )
        res = small_evaluator.evaluate(seed)
        assert outcome.energy == pytest.approx(res.energy)
        assert outcome.utility == pytest.approx(res.utility)
        assert outcome.num_dropped == 0

    def test_upe_matches_offline_greedy(self, small_system, small_trace,
                                        dispatcher, small_evaluator):
        outcome = dispatcher.run(UtilityPerEnergyPolicy())
        seed = MaxUtilityPerEnergy().build(small_system, small_trace)
        np.testing.assert_array_equal(
            outcome.machine_assignment, seed.machine_assignment
        )

    def test_accounting_consistency(self, dispatcher):
        outcome = dispatcher.run(MaxUtilityPolicy())
        executed = ~outcome.dropped
        assert np.all(outcome.completion_times[executed] > 0)
        assert np.all(outcome.machine_assignment[executed] >= 0)


class TestBudgetedPolicy:
    def test_budget_respected(self, dispatcher):
        budget = 1.0e6
        outcome = dispatcher.run(BudgetedUtilityPolicy(), energy_budget=budget)
        assert outcome.energy <= budget + 1e-6
        assert outcome.budget == budget

    def test_tight_budget_drops_tasks(self, dispatcher):
        generous = dispatcher.run(BudgetedUtilityPolicy(), energy_budget=1e12)
        tight_budget = generous.energy * 0.3
        tight = dispatcher.run(BudgetedUtilityPolicy(), energy_budget=tight_budget)
        assert tight.num_dropped > generous.num_dropped
        assert tight.energy <= tight_budget + 1e-6

    def test_zero_budget_drops_everything(self, dispatcher, small_trace):
        outcome = dispatcher.run(BudgetedUtilityPolicy(), energy_budget=0.0)
        assert outcome.num_dropped == small_trace.num_tasks
        assert outcome.energy == 0.0 and outcome.utility == 0.0

    def test_budget_monotone_in_utility(self, dispatcher):
        """More budget never hurts total utility for the budgeted policy."""
        utilities = []
        for budget in (3e5, 6e5, 1.2e6, 1e12):
            out = dispatcher.run(BudgetedUtilityPolicy(), energy_budget=budget)
            utilities.append(out.utility)
        assert all(b >= a - 1e-9 for a, b in zip(utilities, utilities[1:]))

    def test_worthless_drop_threshold(self, dispatcher):
        all_in = dispatcher.run(BudgetedUtilityPolicy(drop_worthless=0.0),
                                energy_budget=1e12)
        picky = dispatcher.run(BudgetedUtilityPolicy(drop_worthless=1e9),
                               energy_budget=1e12)
        assert picky.num_dropped >= all_in.num_dropped
        assert picky.num_dropped == dispatcher.trace.num_tasks

    def test_negative_budget_rejected(self, dispatcher):
        with pytest.raises(ScheduleError):
            dispatcher.run(BudgetedUtilityPolicy(), energy_budget=-1.0)


class TestBudgetFromFront:
    def test_reads_efficient_region(self):
        front = ParetoFront.from_points(
            np.array([[1.0, 5.0], [2.0, 16.0], [4.0, 19.0]])
        )
        # Peak U/E at (2, 16).
        assert budget_from_front(front) == pytest.approx(2.0)
        assert budget_from_front(front, slack=1.5) == pytest.approx(3.0)
        with pytest.raises(ScheduleError):
            budget_from_front(front, slack=0.0)

    def test_offline_to_online_workflow(self, small_system, small_trace,
                                        small_evaluator):
        """The paper's loop: offline front -> energy constraint ->
        online budgeted dispatch stays within it."""
        from repro.core.algorithm import AlgorithmConfig
        from repro.core.nsga2 import NSGA2

        ga = NSGA2(small_evaluator, AlgorithmConfig(population_size=24), rng=8)
        hist = ga.run(30)
        front = ParetoFront(points=hist.final.front_points)
        budget = budget_from_front(front)

        dispatcher = OnlineDispatcher(small_system, small_trace)
        outcome = dispatcher.run(BudgetedUtilityPolicy(), energy_budget=budget)
        assert outcome.energy <= budget + 1e-6
        assert outcome.utility > 0


class TestPolicyContract:
    def test_invalid_choice_caught(self, dispatcher):
        class Broken(MaxUtilityPolicy):
            name = "broken"

            def choose(self, context: DispatchContext) -> int:
                return 9999

        with pytest.raises(ScheduleError):
            dispatcher.run(Broken())

    def test_drop_sentinel(self):
        assert DROP == -1
