"""Tests for crossover/mutation operators and the feasible-machine table."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.operators import (
    FeasibleMachines,
    OperatorConfig,
    VariationOperators,
    repair_orders,
)
from repro.errors import OptimizationError
from repro.workload.trace import Trace

from conftest import make_tiny_system
from oracles import reference_crossover
from test_model_system import make_special_system


def special_feasible():
    from repro.utility.tuf import TimeUtilityFunction

    sys_ = make_special_system().with_utility_functions(
        [TimeUtilityFunction.linear(5.0, 0.01)] * 2
    )
    trace = Trace(
        task_types=np.array([0, 1, 0, 1]),
        arrival_times=np.array([0.0, 1.0, 2.0, 3.0]),
        window=10.0,
    )
    return sys_, trace, FeasibleMachines.from_system_trace(sys_, trace)


class TestFeasibleMachines:
    def test_counts_and_membership(self):
        sys_, trace, feas = special_feasible()
        # Task type 0 can use machines 0, 1, 2; type 1 only 0, 1.
        np.testing.assert_array_equal(feas.counts, [3, 2, 3, 2])
        assert set(feas.padded[0, :3].tolist()) == {0, 1, 2}
        assert set(feas.padded[1, :2].tolist()) == {0, 1}

    def test_sampling_respects_feasibility(self):
        sys_, trace, feas = special_feasible()
        rng = np.random.default_rng(0)
        for _ in range(20):
            machines = feas.sample(np.array([1, 3]), rng)
            assert np.all(np.isin(machines, [0, 1]))

    def test_sample_matrix_feasible(self):
        sys_, trace, feas = special_feasible()
        rng = np.random.default_rng(1)
        m = feas.sample_matrix(50, rng)
        assert m.shape == (50, 4)
        mask = sys_.feasible_task_machine[trace.task_types]
        for row in m:
            assert np.all(mask[np.arange(4), row])

    def test_sampling_covers_all_feasible(self):
        sys_, trace, feas = special_feasible()
        rng = np.random.default_rng(2)
        seen = set(
            feas.sample(np.zeros(300, dtype=np.int64), rng).tolist()
        )
        assert seen == {0, 1, 2}


class TestRepairOrders:
    def test_rank_transform(self):
        orders = np.array([[5, 1, 5], [9, 9, 9]])
        fixed = repair_orders(orders)
        np.testing.assert_array_equal(fixed[0], [1, 0, 2])
        np.testing.assert_array_equal(fixed[1], [0, 1, 2])

    def test_permutation_unchanged_in_effect(self):
        orders = np.array([[2, 0, 1]])
        np.testing.assert_array_equal(repair_orders(orders), orders)


class TestOperatorConfig:
    def test_validation(self):
        with pytest.raises(OptimizationError):
            OperatorConfig(mutation_probability=1.5)
        with pytest.raises(OptimizationError):
            OperatorConfig(mutations_per_offspring=0)


class TestCrossover:
    def make_ops(self, repair=False):
        sys_, trace, feas = special_feasible()
        return sys_, trace, VariationOperators(
            feas, OperatorConfig(mutation_probability=1.0, repair_order=repair)
        )

    def test_offspring_size_matches(self):
        sys_, trace, ops = self.make_ops()
        rng = np.random.default_rng(3)
        feas = ops.feasible
        assign = feas.sample_matrix(10, rng)
        orders = np.tile(np.arange(4), (10, 1))
        ca, co = ops.crossover_population(assign, orders, rng)
        assert ca.shape == assign.shape and co.shape == orders.shape

    def test_genes_come_from_parents_at_same_position(self):
        """Every child gene (machine AND order) equals some parent's
        gene at the same position — the paper's positional swap."""
        sys_, trace, ops = self.make_ops()
        rng = np.random.default_rng(4)
        feas = ops.feasible
        assign = feas.sample_matrix(8, rng)
        orders = np.stack([rng.permutation(4) for _ in range(8)])
        ca, co = ops.crossover_population(assign, orders, rng)
        for child in range(ca.shape[0]):
            for g in range(4):
                pairs = set(zip(assign[:, g].tolist(), orders[:, g].tolist()))
                assert (ca[child, g], co[child, g]) in pairs

    def test_feasibility_preserved(self):
        sys_, trace, ops = self.make_ops()
        rng = np.random.default_rng(5)
        feas = ops.feasible
        mask = sys_.feasible_task_machine[trace.task_types]
        assign = feas.sample_matrix(20, rng)
        orders = np.stack([rng.permutation(4) for _ in range(20)])
        for _ in range(10):
            assign, orders = ops.crossover_population(assign, orders, rng)
            assign, orders = ops.mutate_population(assign, orders, rng)
            for row in assign:
                assert np.all(mask[np.arange(4), row])

    def test_odd_population(self):
        sys_, trace, ops = self.make_ops()
        rng = np.random.default_rng(6)
        assign = ops.feasible.sample_matrix(5, rng)
        orders = np.tile(np.arange(4), (5, 1))
        ca, co = ops.crossover_population(assign, orders, rng)
        assert ca.shape == (5, 4)

    def test_single_parent_copies(self):
        sys_, trace, ops = self.make_ops()
        rng = np.random.default_rng(7)
        assign = ops.feasible.sample_matrix(1, rng)
        orders = np.tile(np.arange(4), (1, 1))
        ca, co = ops.crossover_population(assign, orders, rng)
        np.testing.assert_array_equal(ca, assign)

    def test_repair_mode_yields_permutations(self):
        sys_, trace, ops = self.make_ops(repair=True)
        rng = np.random.default_rng(8)
        assign = ops.feasible.sample_matrix(10, rng)
        orders = np.stack([rng.permutation(4) for _ in range(10)])
        for _ in range(5):
            assign, orders = ops.crossover_population(assign, orders, rng)
            assign, orders = ops.mutate_population(assign, orders, rng)
        for row in orders:
            np.testing.assert_array_equal(np.sort(row), np.arange(4))


class _ScriptedRng:
    """Answers ``integers`` calls from a fixed list, so a test can force
    particular parents and cut points on both implementations."""

    def __init__(self, draws):
        self._draws = list(draws)

    def integers(self, low, high, size=None):
        value = np.asarray(self._draws.pop(0))
        assert np.all((low <= value) & (value < high))
        return value if size is not None else int(value)


class TestCrossoverOracleParity:
    """The one-gather, in-place crossover equals the np.where oracle bit
    for bit and leaves its parents untouched."""

    T = 9

    def parents(self, N, seed=0):
        rng = np.random.default_rng(seed)
        assign = rng.integers(0, 5, size=(N, self.T))
        orders = rng.integers(-3, 40, size=(N, self.T))
        return assign, orders

    def check(self, N, rng_factory, repair=False, **kwargs):
        assign, orders = self.parents(N)
        a0, o0 = assign.copy(), orders.copy()
        ops = VariationOperators(
            special_feasible()[2], OperatorConfig(repair_order=repair)
        )
        got = ops.crossover_population(assign, orders, rng_factory(), **kwargs)
        want = reference_crossover(
            a0, o0, rng_factory(), repair_order=repair, **kwargs
        )
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(assign, a0)
        np.testing.assert_array_equal(orders, o0)
        return got

    @pytest.mark.parametrize("N", [2, 7, 10])
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_generational(self, N, seed):
        self.check(N, lambda: np.random.default_rng(seed))

    def test_odd_population_clone(self):
        ca, _ = self.check(
            5, lambda: _ScriptedRng([[[0, 1], [2, 3]], [[1, 4], [0, 9]], 4])
        )
        assert ca.shape == (5, self.T)
        np.testing.assert_array_equal(ca[4], self.parents(5)[0][4])

    @pytest.mark.parametrize("seed", range(4))
    def test_steady_state_one_offspring(self, seed):
        ca, co = self.check(
            6, lambda: np.random.default_rng(seed), n_offspring=1
        )
        assert ca.shape == co.shape == (1, self.T)

    def test_explicit_parent_pairs(self):
        pairs = np.array([[3, 3], [0, 5], [5, 1]])
        self.check(
            6, lambda: _ScriptedRng([[[2, 6], [7, 1], [4, 4]]]),
            parent_pairs=pairs,
        )

    def test_empty_range_copies_parents(self):
        assign, orders = self.parents(4)
        ca, co = self.check(
            4, lambda: _ScriptedRng([[[2, 1], [0, 3]], [[5, 5], [0, 0]]])
        )
        np.testing.assert_array_equal(ca, assign[[2, 1, 0, 3]])
        np.testing.assert_array_equal(co, orders[[2, 1, 0, 3]])

    def test_full_range_swaps_whole_rows(self):
        assign, orders = self.parents(4)
        T = self.T
        ca, co = self.check(
            4, lambda: _ScriptedRng([[[2, 1], [0, 3]], [[0, T], [T, 0]]])
        )
        np.testing.assert_array_equal(ca, assign[[1, 2, 3, 0]])
        np.testing.assert_array_equal(co, orders[[1, 2, 3, 0]])

    @pytest.mark.parametrize("seed", range(3))
    def test_repair_order(self, seed):
        _, co = self.check(7, lambda: np.random.default_rng(seed), repair=True)
        for row in co:
            np.testing.assert_array_equal(np.sort(row), np.arange(self.T))


class TestMutation:
    def test_zero_probability_no_change(self):
        sys_, trace, feas = special_feasible()
        ops = VariationOperators(feas, OperatorConfig(mutation_probability=0.0))
        rng = np.random.default_rng(9)
        assign = feas.sample_matrix(10, rng)
        orders = np.tile(np.arange(4), (10, 1))
        a2, o2 = ops.mutate_population(assign.copy(), orders.copy(), rng)
        np.testing.assert_array_equal(a2, assign)
        np.testing.assert_array_equal(o2, orders)

    def test_mutation_changes_population(self):
        sys_, trace, feas = special_feasible()
        ops = VariationOperators(feas, OperatorConfig(mutation_probability=1.0))
        rng = np.random.default_rng(10)
        assign = feas.sample_matrix(30, rng)
        orders = np.stack([rng.permutation(4) for _ in range(30)])
        a2, o2 = ops.mutate_population(assign.copy(), orders.copy(), rng)
        assert (not np.array_equal(a2, assign)) or (not np.array_equal(o2, orders))

    def test_order_swap_preserves_multiset(self):
        """Mutation swaps two order keys — the key multiset per
        chromosome is invariant."""
        sys_, trace, feas = special_feasible()
        ops = VariationOperators(feas, OperatorConfig(mutation_probability=1.0))
        rng = np.random.default_rng(11)
        orders = np.stack([rng.permutation(4) for _ in range(20)])
        before = np.sort(orders, axis=1).copy()
        assign = feas.sample_matrix(20, rng)
        _, o2 = ops.mutate_population(assign, orders, rng)
        np.testing.assert_array_equal(np.sort(o2, axis=1), before)
