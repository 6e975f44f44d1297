"""Tests for the DVFS extension."""

import numpy as np
import pytest

from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.errors import ModelError
from repro.extensions.dvfs import (
    DVFS_PRESETS,
    PState,
    expand_system_dvfs,
    make_dvfs_evaluator,
)
from repro.sim.evaluator import ScheduleEvaluator
from repro.sim.schedule import ResourceAllocation


class TestPState:
    def test_energy_factor(self):
        p = PState("x", speed_factor=0.5, power_factor=0.25)
        assert p.energy_factor == pytest.approx(0.5)

    def test_presets_trade_speed_for_energy(self):
        nominal, *reduced = DVFS_PRESETS
        assert nominal.speed_factor == 1.0 and nominal.power_factor == 1.0
        for p in reduced:
            assert p.speed_factor < 1.0
            # Lower states save energy per task.
            assert p.energy_factor < 1.0

    def test_validation(self):
        with pytest.raises(ModelError):
            PState("x", speed_factor=0.0, power_factor=1.0)
        with pytest.raises(ModelError):
            PState("x", speed_factor=1.0, power_factor=-1.0)


class TestExpansion:
    def test_virtual_counts(self, small_system):
        virtual, groups = expand_system_dvfs(small_system, DVFS_PRESETS)
        P = len(DVFS_PRESETS)
        assert virtual.num_machines == small_system.num_machines * P
        assert virtual.num_machine_types == small_system.num_machine_types * P
        assert groups.shape == (virtual.num_machines,)
        # Virtual machines v of physical m map back to m.
        np.testing.assert_array_equal(
            groups, np.repeat(np.arange(small_system.num_machines), P)
        )

    def test_scaled_matrices(self, small_system):
        virtual, _ = expand_system_dvfs(small_system, DVFS_PRESETS)
        P = len(DVFS_PRESETS)
        for p, ps in enumerate(DVFS_PRESETS):
            np.testing.assert_allclose(
                virtual.etc.values[:, p::P],
                small_system.etc.values / ps.speed_factor,
            )
            np.testing.assert_allclose(
                virtual.epc.values[:, p::P],
                small_system.epc.values * ps.power_factor,
            )

    def test_empty_pstates_rejected(self, small_system):
        with pytest.raises(ModelError):
            expand_system_dvfs(small_system, [])


class TestSharedQueues:
    def test_same_physical_machine_shares_queue(self, small_system, small_trace):
        """Two tasks on different P-states of one physical machine
        queue sequentially, not in parallel."""
        ev = make_dvfs_evaluator(small_system, small_trace, DVFS_PRESETS)
        P = len(DVFS_PRESETS)
        T = small_trace.num_tasks
        # Everything on physical machine 0; first two tasks on
        # different virtual machines of it.
        assignment = np.zeros(T, dtype=np.int64)  # p0 of machine 0
        assignment[1] = 1  # p1 of machine 0
        res = ev.evaluate(ResourceAllocation(assignment, np.arange(T)))
        # Task 1 cannot start before task 0 finishes.
        assert res.start_times[1] >= res.completion_times[0] - 1e-9

    def test_nominal_pstate_matches_plain_evaluator(self, small_system,
                                                    small_trace):
        """Assigning everything to p0 reproduces the plain system's
        objective values exactly."""
        plain = ScheduleEvaluator(small_system, small_trace)
        dvfs = make_dvfs_evaluator(small_system, small_trace, DVFS_PRESETS)
        P = len(DVFS_PRESETS)
        rng = np.random.default_rng(0)
        T = small_trace.num_tasks
        machines = rng.integers(0, small_system.num_machines, size=T)
        order = rng.permutation(T)
        plain_res = plain.evaluate(ResourceAllocation(machines, order))
        dvfs_res = dvfs.evaluate(ResourceAllocation(machines * P, order))
        assert dvfs_res.energy == pytest.approx(plain_res.energy)
        assert dvfs_res.utility == pytest.approx(plain_res.utility)

    def test_low_pstate_saves_energy(self, small_system, small_trace):
        dvfs = make_dvfs_evaluator(small_system, small_trace, DVFS_PRESETS)
        P = len(DVFS_PRESETS)
        rng = np.random.default_rng(1)
        T = small_trace.num_tasks
        machines = rng.integers(0, small_system.num_machines, size=T)
        order = rng.permutation(T)
        nominal = dvfs.evaluate(ResourceAllocation(machines * P, order))
        low = dvfs.evaluate(ResourceAllocation(machines * P + (P - 1), order))
        assert low.energy < nominal.energy


class TestDVFSOptimization:
    def test_nsga2_reaches_below_plain_min_energy(self, small_system,
                                                  small_trace):
        """The DVFS frontier extends below the plain system's minimum
        energy (the A6 claim): the GA can use low-power states."""
        from repro.heuristics import MinEnergy

        plain_ev = ScheduleEvaluator(small_system, small_trace)
        e_floor = plain_ev.evaluate(
            MinEnergy().build(small_system, small_trace)
        ).energy

        dvfs_ev = make_dvfs_evaluator(small_system, small_trace, DVFS_PRESETS)
        # The seeding heuristics work unchanged on the virtual system:
        # min-energy picks the best (machine, P-state) per task.
        dvfs_seed = MinEnergy().build(dvfs_ev.system, small_trace)
        ga = NSGA2(dvfs_ev, AlgorithmConfig(population_size=24),
                   seeds=[dvfs_seed], rng=3)
        hist = ga.run(40)
        assert hist.final.front_points[:, 0].min() < e_floor
