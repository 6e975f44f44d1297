"""Cross-cutting property tests (hypothesis) beyond per-module suites.

These target *relationships between components* that no single unit
test pins down: order-key normalization invariance, archive/brute-force
agreement, selection elitism, DVFS identity, attainment consistency.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.attainment import attainment_surface
from repro.analysis.pareto_front import ParetoFront
from repro.core.archive import ParetoArchive
from repro.core.dominance import nondominated_mask
from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.core.operators import FeasibleMachines, OperatorConfig, VariationOperators
from repro.core.population import Population
from repro.core.sorting import fast_nondominated_sort
from repro.extensions.dvfs import PState, make_dvfs_evaluator
from repro.sim.evaluator import ScheduleEvaluator
from repro.sim.schedule import ResourceAllocation

from conftest import random_allocation
from test_sim_events_equivalence import random_scenario


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5000))
def test_property_order_normalization_invariant(seed):
    """Renormalizing duplicate order keys to a permutation (stable)
    never changes the simulated schedule."""
    system, trace = random_scenario(seed, 35, 4, 5)
    rng = np.random.default_rng(seed)
    alloc = ResourceAllocation(
        machine_assignment=rng.integers(0, 5, size=35),
        scheduling_order=rng.integers(0, 8, size=35),  # heavy duplication
    )
    evaluator = ScheduleEvaluator(system, trace)
    a = evaluator.evaluate(alloc)
    b = evaluator.evaluate(alloc.normalized_order())
    np.testing.assert_allclose(a.completion_times, b.completion_times)
    assert a.energy == b.energy


@settings(max_examples=30, deadline=None)
@given(
    batches=st.lists(
        st.lists(
            st.tuples(st.floats(0.1, 100.0), st.floats(0.1, 100.0)),
            min_size=1,
            max_size=15,
        ),
        min_size=1,
        max_size=5,
    )
)
def test_property_archive_equals_bruteforce(batches):
    """Incremental archive updates equal one-shot nondominated
    filtering of everything ever seen."""
    archive = ParetoArchive()
    everything = []
    for batch in batches:
        pts = np.asarray(batch)
        archive.update(pts)
        everything.append(pts)
    all_pts = np.vstack(everything)
    expected = all_pts[nondominated_mask(all_pts)]
    # Compare as sets of tuples (archive collapses duplicates).
    got = {tuple(p) for p in archive.points}
    want = {tuple(p) for p in expected}
    assert got == want


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000))
def test_property_environmental_selection_is_elitist(seed):
    """After any generation, every current rank-1 objective point of
    the previous meta-population survives if the front fits in N."""
    system, trace = random_scenario(seed, 25, 3, 4)
    evaluator = ScheduleEvaluator(system, trace, check_feasibility=False)
    ga = NSGA2(evaluator, AlgorithmConfig(population_size=16), rng=seed)
    before_pts, _ = ga.current_front()
    ga.step()
    after = ga.population.objectives
    if before_pts.shape[0] <= 16:
        # Each previous front point must be matched or dominated by the
        # new population (elitism: cannot get worse).
        for point in before_pts:
            matched = np.any(
                (after[:, 0] <= point[0] + 1e-9) & (after[:, 1] >= point[1] - 1e-9)
            )
            assert matched


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000))
def test_property_crossover_identical_parents_identity(seed):
    """Crossing a population of clones yields the same clone."""
    system, trace = random_scenario(seed, 20, 3, 4)
    feas = FeasibleMachines.from_system_trace(system, trace)
    rng = np.random.default_rng(seed)
    one = feas.sample_matrix(1, rng)
    order = rng.permutation(20)[None, :]
    assignments = np.repeat(one, 8, axis=0)
    orders = np.repeat(order, 8, axis=0)
    ops = VariationOperators(feas, OperatorConfig(mutation_probability=0.0))
    ca, co = ops.crossover_population(assignments, orders, rng)
    np.testing.assert_array_equal(ca, assignments)
    np.testing.assert_array_equal(co, orders)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000))
def test_property_dvfs_identity_pstate_matches_plain(seed):
    """A single nominal P-state makes the DVFS evaluator identical to
    the plain one on arbitrary scenarios."""
    system, trace = random_scenario(seed, 25, 3, 4)
    plain = ScheduleEvaluator(system, trace)
    dvfs = make_dvfs_evaluator(
        system, trace, [PState("p0", speed_factor=1.0, power_factor=1.0)]
    )
    alloc = random_allocation(system, trace, seed=seed + 1)
    a = plain.evaluate(alloc)
    b = dvfs.evaluate(alloc)  # identical machine indices (P == 1)
    assert a.energy == pytest.approx(b.energy)
    assert a.utility == pytest.approx(b.utility)


@settings(max_examples=25, deadline=None)
@given(
    runs=st.lists(
        st.lists(
            st.tuples(st.floats(0.1, 50.0), st.floats(0.1, 50.0)),
            min_size=1,
            max_size=10,
        ),
        min_size=1,
        max_size=5,
    )
)
def test_property_attainment_k1_is_union_front(runs):
    fronts = [np.asarray(r) for r in runs]
    best = attainment_surface(fronts, k=1)
    union = ParetoFront.from_points(np.vstack(fronts))
    np.testing.assert_allclose(best.points, union.points)


@settings(max_examples=25, deadline=None)
@given(
    runs=st.lists(
        st.lists(
            st.tuples(st.floats(0.1, 50.0), st.floats(0.1, 50.0)),
            min_size=1,
            max_size=10,
        ),
        min_size=2,
        max_size=6,
    ),
)
def test_property_attainment_monotone_in_k(runs):
    """Every k+1 surface is weakly worse: no point of the k surface is
    dominated by the k+1 surface."""
    fronts = [np.asarray(r) for r in runs]
    surfaces = [attainment_surface(fronts, k) for k in range(1, len(fronts) + 1)]
    for lower, higher in zip(surfaces, surfaces[1:]):
        assert lower.fraction_dominated_by(higher) == 0.0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000))
def test_property_rank1_survives_in_population_evaluation(seed):
    """Population.objectives rank-1 rows are exactly the nondominated
    mask rows (sorting and masking agree on real GA data)."""
    system, trace = random_scenario(seed, 20, 3, 4)
    feas = FeasibleMachines.from_system_trace(system, trace)
    evaluator = ScheduleEvaluator(system, trace, check_feasibility=False)
    pop = Population.random(feas, 12, np.random.default_rng(seed))
    pop.evaluate(evaluator)
    ranks = fast_nondominated_sort(pop.objectives)
    np.testing.assert_array_equal(ranks == 1, nondominated_mask(pop.objectives))
