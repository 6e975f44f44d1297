"""Property tests: the vectorized evaluator equals the reference simulator.

This is the central correctness property of the simulator layer — the
closed-form segmented-scan evaluation must agree with the obviously
correct sequential simulation (``tests/oracles.py``) on arbitrary
feasible inputs.  The Gantt entries built from the evaluator's result
are checked against the same simulation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.heuristics import SEEDING_HEURISTICS
from repro.model.system import SystemModel
from repro.sim.evaluator import ScheduleEvaluator
from repro.sim.gantt import gantt_entries
from repro.sim.schedule import ResourceAllocation
from repro.utility.presets import assign_presets
from repro.workload.generator import WorkloadGenerator
from repro.workload.trace import Trace

from conftest import make_tiny_system, random_allocation
from oracles import simulate_reference


def random_scenario(seed: int, num_tasks: int, num_types: int, num_machines: int):
    """A seeded random (system, trace) pair."""
    rng = np.random.default_rng(seed)
    etc = rng.uniform(1.0, 100.0, size=(num_types, num_machines))
    epc = rng.uniform(10.0, 300.0, size=(num_types, num_machines))
    system = SystemModel.from_matrices(etc, epc)
    system = system.with_utility_functions(
        assign_presets(num_types, 300.0, seed=seed + 1)
    )
    trace = WorkloadGenerator.uniform_for(num_types).generate(
        num_tasks, 300.0, seed=seed + 2
    )
    return system, trace


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_tasks=st.integers(1, 60),
    num_types=st.integers(1, 6),
    num_machines=st.integers(1, 8),
)
def test_property_fast_equals_reference(seed, num_tasks, num_types, num_machines):
    system, trace = random_scenario(seed, num_tasks, num_types, num_machines)
    alloc = random_allocation(system, trace, seed=seed + 3)
    fast = ScheduleEvaluator(system, trace).evaluate(alloc)
    ref = simulate_reference(system, trace, alloc)
    np.testing.assert_allclose(fast.completion_times, ref.completion_times,
                               rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(fast.start_times, ref.start_times,
                               rtol=1e-12, atol=1e-9)
    assert fast.energy == pytest.approx(ref.energy, rel=1e-12)
    assert fast.utility == pytest.approx(ref.utility, rel=1e-9, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_duplicate_keys_agree(seed):
    """Equivalence holds with non-permutation order keys too."""
    system, trace = random_scenario(seed, 40, 4, 5)
    rng = np.random.default_rng(seed)
    alloc = ResourceAllocation(
        machine_assignment=rng.integers(0, 5, size=40),
        scheduling_order=rng.integers(0, 10, size=40),  # many duplicates
    )
    fast = ScheduleEvaluator(system, trace).evaluate(alloc)
    ref = simulate_reference(system, trace, alloc)
    np.testing.assert_allclose(fast.completion_times, ref.completion_times,
                               rtol=1e-12, atol=1e-9)


class TestGantt:
    def test_gantt_consistency(self, tiny_system, tiny_trace):
        alloc = random_allocation(tiny_system, tiny_trace, seed=0)
        gantt = gantt_entries(
            alloc, ScheduleEvaluator(tiny_system, tiny_trace).evaluate(alloc),
            tiny_trace.arrival_times,
        )
        ref = simulate_reference(tiny_system, tiny_trace, alloc)
        assert sorted(e.task for e in gantt) == list(range(tiny_trace.num_tasks))
        previous_finish: dict[int, float] = {}
        for entry in sorted(gantt, key=lambda e: e.finish):
            assert entry.finish > entry.start
            assert entry.idle_before >= 0
            assert entry.start >= tiny_trace.arrival_times[entry.task]
            # The sequential simulation's start, finish and idle gap.
            start = ref.start_times[entry.task]
            idle = start - previous_finish.get(entry.machine, 0.0)
            previous_finish[entry.machine] = ref.completion_times[entry.task]
            assert entry.start == pytest.approx(start, rel=1e-12, abs=1e-9)
            assert entry.finish == pytest.approx(
                ref.completion_times[entry.task], rel=1e-12, abs=1e-9)
            assert entry.idle_before == pytest.approx(idle, rel=1e-12, abs=1e-9)
        # Entries sorted by start time.
        starts = [e.start for e in gantt]
        assert starts == sorted(starts)

    @pytest.mark.parametrize("heuristic", sorted(SEEDING_HEURISTICS))
    def test_idle_gaps_match_simulation_exactly(self, ds1_bundle, heuristic):
        # A machine that never waited shows idle_before == 0.0 exactly,
        # as in the sequential simulation, never float noise around 0.
        system, trace = ds1_bundle.system, ds1_bundle.trace
        alloc = SEEDING_HEURISTICS[heuristic]().build(system, trace)
        gantt = gantt_entries(
            alloc, ScheduleEvaluator(system, trace).evaluate(alloc),
            trace.arrival_times,
        )
        ref = simulate_reference(system, trace, alloc)
        previous_finish: dict[int, float] = {}
        for entry in sorted(gantt, key=lambda e: (e.machine, e.finish)):
            idle = ref.start_times[entry.task] - previous_finish.get(
                entry.machine, 0.0)
            previous_finish[entry.machine] = ref.completion_times[entry.task]
            assert entry.idle_before >= 0
            assert entry.start >= trace.arrival_times[entry.task]
            assert (entry.idle_before == 0.0) == (idle == 0.0)

    def test_no_machine_overlap(self, small_system, small_trace):
        alloc = random_allocation(small_system, small_trace, seed=9)
        gantt = gantt_entries(
            alloc, ScheduleEvaluator(small_system, small_trace).evaluate(alloc),
            small_trace.arrival_times,
        )
        by_machine: dict[int, list] = {}
        for e in gantt:
            by_machine.setdefault(e.machine, []).append(e)
        for entries in by_machine.values():
            entries.sort(key=lambda e: e.start)
            for a, b in zip(entries, entries[1:]):
                assert b.start >= a.finish - 1e-9


class TestInvariants:
    def test_start_after_arrival(self, small_system, small_trace, small_evaluator):
        for seed in range(5):
            alloc = random_allocation(small_system, small_trace, seed=seed)
            res = small_evaluator.evaluate(alloc)
            assert np.all(res.start_times >= small_trace.arrival_times - 1e-9)

    def test_energy_independent_of_order(self, small_system, small_trace,
                                         small_evaluator):
        """Energy (Eq. 3) depends only on the mapping, not the order."""
        alloc = random_allocation(small_system, small_trace, seed=1)
        rng = np.random.default_rng(2)
        reordered = ResourceAllocation(
            machine_assignment=alloc.machine_assignment,
            scheduling_order=rng.permutation(small_trace.num_tasks),
        )
        a = small_evaluator.evaluate(alloc)
        b = small_evaluator.evaluate(reordered)
        assert a.energy == pytest.approx(b.energy)

    def test_utility_nonnegative_and_bounded(self, small_system, small_trace,
                                             small_evaluator):
        bound = small_evaluator.tuf_table.utility_upper_bound(small_trace.task_types)
        for seed in range(5):
            alloc = random_allocation(small_system, small_trace, seed=seed)
            res = small_evaluator.evaluate(alloc)
            assert 0.0 <= res.utility <= bound + 1e-9
