"""Tests for the makespan-energy baseline evaluator."""

import numpy as np
import pytest

from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.errors import ScheduleError
from repro.heuristics import MinMinCompletionTime
from repro.sim.evaluator import ScheduleEvaluator
from repro.sim.makespan import MakespanEnergyEvaluator
from repro.sim.schedule import ResourceAllocation

from conftest import random_allocation


class TestMakespanEvaluator:
    def test_matches_utility_evaluator_completions(self, small_system,
                                                   small_trace):
        """With arrivals kept, makespan equals the utility evaluator's
        max completion time."""
        util_ev = ScheduleEvaluator(small_system, small_trace)
        mk_ev = MakespanEnergyEvaluator(small_system, small_trace,
                                        bag_of_tasks=False)
        for seed in range(4):
            alloc = random_allocation(small_system, small_trace, seed=seed)
            res = util_ev.evaluate(alloc)
            e, mk = mk_ev.objectives(alloc)
            assert mk == pytest.approx(res.makespan)
            assert e == pytest.approx(res.energy)

    def test_bag_of_tasks_ignores_arrivals(self, small_system, small_trace):
        """Bag-of-tasks mode (the predecessor's model) treats all tasks
        as available at time 0, so its makespan is never larger."""
        with_arrivals = MakespanEnergyEvaluator(small_system, small_trace,
                                                bag_of_tasks=False)
        bag = MakespanEnergyEvaluator(small_system, small_trace,
                                      bag_of_tasks=True)
        for seed in range(4):
            alloc = random_allocation(small_system, small_trace, seed=seed)
            assert bag.makespan(alloc) <= with_arrivals.makespan(alloc) + 1e-9

    def test_batch_signs(self, small_system, small_trace):
        mk_ev = MakespanEnergyEvaluator(small_system, small_trace)
        alloc = random_allocation(small_system, small_trace, seed=1)
        e, neg = mk_ev.evaluate_batch(
            alloc.machine_assignment[None, :],
            alloc.scheduling_order[None, :],
        )
        assert neg[0] < 0  # engine space: maximize -makespan
        assert e[0] > 0

    def test_to_report_points(self):
        pts = np.array([[10.0, -5.0], [12.0, -4.0]])
        out = MakespanEnergyEvaluator.to_report_points(pts)
        np.testing.assert_allclose(out, [[10.0, 5.0], [12.0, 4.0]])

    def test_shape_validation(self, small_system, small_trace):
        mk_ev = MakespanEnergyEvaluator(small_system, small_trace)
        with pytest.raises(ScheduleError):
            mk_ev.evaluate_batch(np.zeros((2, 3), dtype=int),
                                 np.zeros((2, 4), dtype=int))


class TestNSGA2Integration:
    def test_engine_minimizes_makespan(self, small_system, small_trace):
        """Plugged into the unchanged NSGA-II, the baseline evaluator
        drives makespan down over generations."""
        mk_ev = MakespanEnergyEvaluator(small_system, small_trace,
                                        bag_of_tasks=True)
        ga = NSGA2(mk_ev, AlgorithmConfig(population_size=20), rng=4)
        first, _ = ga.current_front()
        best_initial = -first[:, 1].max()  # smallest makespan
        hist = ga.run(30)
        final = MakespanEnergyEvaluator.to_report_points(hist.final.front_points)
        assert final[:, 1].min() <= best_initial + 1e-9

    def test_makespan_and_utility_fronts_differ(self, small_system,
                                                small_trace):
        """The paper's motivation: optimizing makespan is not the same
        as optimizing utility.  The allocation with the best makespan
        on the makespan front earns less utility than the best-utility
        allocation of a utility run."""
        util_ev = ScheduleEvaluator(small_system, small_trace,
                                    check_feasibility=False)
        mk_ev = MakespanEnergyEvaluator(small_system, small_trace,
                                        bag_of_tasks=False)
        seeds = [MinMinCompletionTime().build(small_system, small_trace)]
        util_hist = NSGA2(util_ev, AlgorithmConfig(population_size=24),
                          seeds=seeds, rng=5).run(40)
        mk_ga = NSGA2(mk_ev, AlgorithmConfig(population_size=24),
                      seeds=seeds, rng=5)
        mk_hist = mk_ga.run(40)

        # Take the best-makespan chromosome from the makespan run and
        # evaluate its *utility*.
        final = mk_hist.final
        report = MakespanEnergyEvaluator.to_report_points(final.front_points)
        best_mk_row = int(np.argmin(report[:, 1]))
        alloc = ResourceAllocation(
            final.front_assignments[best_mk_row],
            final.front_orders[best_mk_row],
        )
        u_of_mk_champion = util_ev.evaluate(alloc).utility
        u_best = util_hist.final.front_points[:, 1].max()
        assert u_best >= u_of_mk_champion
