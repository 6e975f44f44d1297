"""Tests for the packed Population container."""

import numpy as np
import pytest

from repro.core.algorithm import AlgorithmConfig
from repro.core.checkpoint import capture_state
from repro.core.nsga2 import NSGA2, EpsilonArchiveNSGA2
from repro.core.operators import FeasibleMachines
from repro.core.population import Population
from repro.core.seeding import seeded_initial_population
from repro.core.spea2 import SPEA2
from repro.errors import OptimizationError
from repro.sim.schedule import ResourceAllocation


@pytest.fixture
def feas(small_system, small_trace):
    return FeasibleMachines.from_system_trace(small_system, small_trace)


class TestRandomInit:
    def test_shapes(self, feas):
        rng = np.random.default_rng(0)
        pop = Population.random(feas, 12, rng)
        assert pop.size == 12
        assert pop.num_tasks == feas.num_tasks
        assert not pop.is_evaluated

    def test_orders_are_permutations(self, feas):
        rng = np.random.default_rng(1)
        pop = Population.random(feas, 5, rng)
        T = pop.num_tasks
        for row in pop.orders:
            np.testing.assert_array_equal(np.sort(row), np.arange(T))

    def test_invalid_size(self, feas):
        with pytest.raises(OptimizationError):
            Population.random(feas, 0, np.random.default_rng(0))


class TestEvaluation:
    def test_evaluate_fills_objectives(self, feas, small_evaluator):
        pop = Population.random(feas, 8, np.random.default_rng(2))
        pop.evaluate(small_evaluator)
        assert pop.is_evaluated
        assert pop.objectives.shape == (8, 2)
        assert np.all(pop.energies > 0)

    def test_objectives_before_evaluate_rejected(self, feas):
        pop = Population.random(feas, 3, np.random.default_rng(3))
        with pytest.raises(OptimizationError):
            _ = pop.objectives


class TestComposition:
    def test_concatenate(self, feas, small_evaluator):
        rng = np.random.default_rng(4)
        a = Population.random(feas, 4, rng)
        b = Population.random(feas, 6, rng)
        a.evaluate(small_evaluator)
        b.evaluate(small_evaluator)
        meta = a.concatenate(b)
        assert meta.size == 10
        np.testing.assert_array_equal(meta.energies[:4], a.energies)
        np.testing.assert_array_equal(meta.energies[4:], b.energies)

    def test_concatenate_requires_evaluation(self, feas):
        rng = np.random.default_rng(5)
        a = Population.random(feas, 2, rng)
        b = Population.random(feas, 2, rng)
        with pytest.raises(OptimizationError):
            a.concatenate(b)

    def test_select(self, feas, small_evaluator):
        pop = Population.random(feas, 6, np.random.default_rng(6))
        pop.evaluate(small_evaluator)
        sub = pop.select(np.array([4, 0]))
        assert sub.size == 2
        np.testing.assert_array_equal(sub.assignments[0], pop.assignments[4])
        assert sub.energies[1] == pop.energies[0]

    def test_allocation_roundtrip(self, feas, small_evaluator):
        pop = Population.random(feas, 3, np.random.default_rng(7))
        pop.evaluate(small_evaluator)
        alloc = pop.allocation(1)
        res = small_evaluator.evaluate(alloc)
        assert res.energy == pytest.approx(pop.energies[1])
        assert res.utility == pytest.approx(pop.utilities[1])

    def test_allocation_out_of_range(self, feas):
        pop = Population.random(feas, 3, np.random.default_rng(8))
        with pytest.raises(OptimizationError):
            pop.allocation(3)


class TestInt32Genes:
    def test_genes_are_int32(self, feas):
        pop = Population.random(feas, 4, np.random.default_rng(9))
        assert pop.assignments.dtype == np.int32
        assert pop.orders.dtype == np.int32

    @pytest.mark.parametrize("value", [2**31, -(2**31) - 1, 2**40])
    def test_out_of_range_genes_raise_not_wrap(self, value):
        orders = np.zeros((2, 3), dtype=np.int64)
        orders[1, 2] = value
        with pytest.raises(OptimizationError, match="int32 range"):
            Population(assignments=np.zeros((2, 3), dtype=np.int64),
                       orders=orders)

    def test_int32_range_edges_kept(self):
        orders = np.array([[-(2**31), 2**31 - 1]], dtype=np.int64)
        pop = Population(assignments=np.zeros((1, 2), dtype=np.int64),
                         orders=orders)
        assert pop.orders.tolist() == orders.tolist()

    def test_seed_outside_int32_range_raises(self, feas):
        T = feas.num_tasks
        seed = ResourceAllocation(
            machine_assignment=feas.padded[:, 0],
            scheduling_order=np.arange(T, dtype=np.int64) + 2**31,
        )
        with pytest.raises(OptimizationError, match="int32 range"):
            seeded_initial_population(feas, 4, [seed], 0)


def make_engine(kind, evaluator):
    config = AlgorithmConfig(
        population_size=12,
        offspring_size=1 if kind == "steady-state" else None,
    )
    engine = {"nsga2": NSGA2, "steady-state": NSGA2, "spea2": SPEA2,
              "eps-archive": EpsilonArchiveNSGA2}[kind]
    return engine(evaluator, config, rng=5)


def frozen(*arrays):
    return [a.copy() for a in arrays]


class TestSlab:
    @pytest.mark.parametrize("kind", ["nsga2", "steady-state", "spea2"])
    def test_handed_out_arrays_survive_later_steps(self, small_evaluator,
                                                   kind):
        """Genes live in two alternating slabs, but nothing the engine
        hands out is overwritten by a later step: the population held
        and a snapshot's front arrays stay unchanged across three more
        steps (by the second, the survivor gather has come back to the
        buffer the held population sits in)."""
        algo = make_engine(kind, small_evaluator)
        snap = algo.run(2).final
        held = algo.population
        held_before = frozen(held.assignments, held.orders, held.energies,
                             held.utilities)
        snap_before = frozen(snap.front_assignments, snap.front_orders)
        for _ in range(3):
            algo.step()
        for now, before in zip((held.assignments, held.orders,
                                held.energies, held.utilities), held_before):
            np.testing.assert_array_equal(now, before)
        np.testing.assert_array_equal(snap.front_assignments, snap_before[0])
        np.testing.assert_array_equal(snap.front_orders, snap_before[1])
        assert snap.front_assignments.dtype == np.int64
        assert algo.population is not held

    def test_select_and_concatenate_on_handed_out_population(
        self, small_evaluator
    ):
        """Populations built from ``algo.population`` are the caller's:
        neither its select nor its concatenate gathers into the engine's
        slab, so later steps leave them unchanged."""
        algo = make_engine("nsga2", small_evaluator)
        algo.run(2)
        held = algo.population
        picked = held.select(np.arange(held.size)[::-1])
        joined = held.concatenate(picked)
        before = [frozen(p.assignments, p.orders, p.energies, p.utilities)
                  for p in (picked, joined)]
        for _ in range(3):
            algo.step()
        for pop, was in zip((picked, joined), before):
            for now, then in zip((pop.assignments, pop.orders,
                                  pop.energies, pop.utilities), was):
                np.testing.assert_array_equal(now, then)
        np.testing.assert_array_equal(picked.assignments,
                                      held.assignments[::-1])

    def test_checkpoint_state_and_archive_payloads_are_copies(
        self, small_evaluator
    ):
        algo = make_engine("eps-archive", small_evaluator)
        algo.step()
        state = capture_state(algo, (), 0.0, {})
        payloads = algo.archive.payloads
        state_before = frozen(state.assignments, state.orders)
        payloads_before = [frozen(*p) for p in payloads]
        for _ in range(3):
            algo.step()
        np.testing.assert_array_equal(state.assignments, state_before[0])
        np.testing.assert_array_equal(state.orders, state_before[1])
        assert state.assignments.dtype == np.int64
        for payload, before in zip(payloads, payloads_before):
            np.testing.assert_array_equal(payload[0], before[0])
            np.testing.assert_array_equal(payload[1], before[1])

    def test_meta_population_is_a_view_and_select_gathers(
        self, small_evaluator
    ):
        """Inside the engine, parents and offspring are adjacent slab
        rows: the meta-population copies no gene."""
        algo = make_engine("nsga2", small_evaluator)
        algo.step()
        seen = {}
        replacement = algo._replacement

        def spy(parents, offspring):
            meta = parents.concatenate(offspring)
            seen["view"] = (
                np.shares_memory(meta.assignments, parents.assignments)
                and np.shares_memory(meta.assignments, offspring.assignments)
            )
            return replacement(parents, offspring)

        algo._replacement = spy
        algo.step()
        assert seen["view"]

    def test_standalone_select_rejects_out_of_range(self, feas,
                                                    small_evaluator):
        pop = Population.random(feas, 3, np.random.default_rng(10))
        pop.evaluate(small_evaluator)
        with pytest.raises(OptimizationError):
            pop.select(np.array([0, 3]))
        with pytest.raises(OptimizationError):
            pop.select(np.array([-1]))
