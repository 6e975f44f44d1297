"""Tests for seed injection and the external Pareto archive."""

import numpy as np
import pytest

from repro.core.archive import ParetoArchive
from repro.core.dominance import nondominated_mask
from repro.core.operators import FeasibleMachines
from repro.core.seeding import repair_mapped_seeds, seeded_initial_population
from repro.errors import OptimizationError
from repro.heuristics import MinEnergy
from repro.workload.trace import Trace


class TestSeeding:
    def test_seed_occupies_first_row(self, small_system, small_trace):
        feas = FeasibleMachines.from_system_trace(small_system, small_trace)
        seed_alloc = MinEnergy().build(small_system, small_trace)
        pop = seeded_initial_population(feas, 10, [seed_alloc], rng_seed=0)
        np.testing.assert_array_equal(pop.assignments[0], seed_alloc.machine_assignment)
        np.testing.assert_array_equal(pop.orders[0], seed_alloc.scheduling_order)

    def test_rest_is_random(self, small_system, small_trace):
        feas = FeasibleMachines.from_system_trace(small_system, small_trace)
        seed_alloc = MinEnergy().build(small_system, small_trace)
        pop = seeded_initial_population(feas, 10, [seed_alloc], rng_seed=0)
        # At least one non-seed row differs from the seed.
        assert any(
            not np.array_equal(pop.assignments[i], seed_alloc.machine_assignment)
            for i in range(1, 10)
        )

    def test_no_seeds_all_random(self, small_system, small_trace):
        feas = FeasibleMachines.from_system_trace(small_system, small_trace)
        pop = seeded_initial_population(feas, 5, [], rng_seed=1)
        assert pop.size == 5

    def test_too_many_seeds_rejected(self, small_system, small_trace):
        feas = FeasibleMachines.from_system_trace(small_system, small_trace)
        seed_alloc = MinEnergy().build(small_system, small_trace)
        with pytest.raises(OptimizationError):
            seeded_initial_population(feas, 1, [seed_alloc, seed_alloc], rng_seed=0)


def per_seed_repair_reference(donor_types, donors, types, feasible, rng,
                              arrival_order_first):
    """repair_mapped_seeds written one seed row at a time (the RNG
    stream contract: type-major donor draws, per-seed fallbacks, then
    one order per seed)."""
    S, T = donors.shape[0], types.shape[0]
    assignments = np.empty((S, T), dtype=np.int64)
    rows = np.arange(S)[:, None]
    for t in np.unique(types):
        at = np.flatnonzero(types == t)
        pool = np.flatnonzero(donor_types == t)
        if pool.size:
            picks = rng.integers(0, pool.size, size=(S, at.size))
            assignments[:, at] = donors[rows, pool[picks]]
        else:
            for s in range(S):
                assignments[s, at] = feasible.sample(at, rng)
    orders = [
        np.arange(T) if s == 0 and arrival_order_first
        else rng.permutation(T)
        for s in range(S)
    ]
    return assignments, orders


class TestRepairMappedSeeds:
    def test_matches_per_seed_reference(self, small_system):
        rng = np.random.default_rng(8)
        K = small_system.num_task_types
        fallbacks = 0
        for case in range(60):
            D, T, S = (int(x) for x in rng.integers(1, 9, size=3))
            donor_types = rng.integers(0, K, D)
            types = rng.integers(0, K, T)
            fallbacks += bool(set(types.tolist()) - set(donor_types.tolist()))
            donors = rng.integers(0, small_system.num_machines, (S, D))
            feasible = FeasibleMachines.from_system_trace(
                small_system,
                Trace(task_types=types, arrival_times=np.zeros(T),
                      window=1.0),
            )
            first = bool(case % 2)
            seeds = repair_mapped_seeds(
                donor_types, donors, types, feasible, rng_seed=case,
                arrival_order_first=first,
            )
            ref_a, ref_o = per_seed_repair_reference(
                donor_types, donors, types, feasible,
                np.random.default_rng(case), first,
            )
            assert len(seeds) == S
            for s, seed in enumerate(seeds):
                np.testing.assert_array_equal(seed.machine_assignment,
                                              ref_a[s])
                np.testing.assert_array_equal(seed.scheduling_order,
                                              ref_o[s])
        assert fallbacks > 10

    def test_unseen_types_get_feasible_machines(self, small_system):
        types = np.array([0, 1, 2, 3])
        feasible = FeasibleMachines.from_system_trace(
            small_system,
            Trace(task_types=types, arrival_times=np.zeros(4), window=1.0),
        )
        seeds = repair_mapped_seeds(
            np.array([0]), np.array([[1], [2], [3]]), types, feasible,
            rng_seed=4, max_seeds=2, arrival_order_first=True,
        )
        assert len(seeds) == 2
        np.testing.assert_array_equal(seeds[0].scheduling_order,
                                      np.arange(4))
        mask = small_system.feasible_task_machine
        for seed in seeds:
            assert mask[types, seed.machine_assignment].all()
        assert [int(s.machine_assignment[0]) for s in seeds] == [1, 2]


class TestArchive:
    def test_update_keeps_nondominated(self):
        archive = ParetoArchive()
        archive.update(np.array([[2.0, 5.0], [1.0, 3.0], [3.0, 4.0]]))
        # (3, 4) dominated by (2, 5).
        assert len(archive) == 2

    def test_incremental_updates(self):
        archive = ParetoArchive()
        archive.update(np.array([[2.0, 5.0]]))
        archive.update(np.array([[1.0, 6.0]]))  # dominates the first
        assert len(archive) == 1
        np.testing.assert_allclose(archive.points, [[1.0, 6.0]])

    def test_payloads_follow_points(self):
        archive = ParetoArchive()
        archive.update(np.array([[2.0, 5.0], [1.0, 3.0]]), payloads=["a", "b"])
        archive.update(np.array([[0.5, 6.0]]), payloads=["c"])
        assert archive.payloads == ["c"]

    def test_duplicates_collapse(self):
        archive = ParetoArchive()
        archive.update(np.array([[1.0, 5.0], [1.0, 5.0]]), payloads=["x", "y"])
        assert len(archive) == 1
        assert archive.payloads == ["x"]

    def test_front_sorted(self):
        archive = ParetoArchive()
        archive.update(np.array([[3.0, 9.0], [1.0, 4.0], [2.0, 7.0]]))
        front = archive.front()
        assert np.all(np.diff(front[:, 0]) >= 0)
        assert nondominated_mask(front).all()

    def test_dominates_point(self):
        archive = ParetoArchive()
        archive.update(np.array([[1.0, 5.0]]))
        assert archive.dominates_point((2.0, 4.0))
        assert not archive.dominates_point((0.5, 6.0))
        assert not archive.dominates_point((1.0, 5.0))  # equal: not dominated

    def test_payload_count_mismatch_rejected(self):
        archive = ParetoArchive()
        with pytest.raises(OptimizationError):
            archive.update(np.array([[1.0, 2.0]]), payloads=["a", "b"])

    def test_empty_archive(self):
        archive = ParetoArchive()
        assert len(archive) == 0
        assert not archive.dominates_point((1.0, 1.0))
