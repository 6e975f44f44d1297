"""Production NSGA-II against the reference selection: bit-identical fronts.

The engine ranks with the O(N log N) sweep, fills the next population
with one stable argsort, and carries the survivors' ranks into the next
generation's tournament.  ``oracles.ReferenceSelection`` does the same
job the obvious way: the O(N²) dominance-matrix sort, fronts filled one
by one, no rank cache.  The production path is *only* a speedup: every
front, snapshot and checkpoint must be bit-identical to the reference
for the same seed, for every NSGA-II composition (generational,
steady-state, ε-archive), with the evaluation cache on or off, through
kill-and-resume, under both parent-selection modes.
"""

import numpy as np
import pytest

from oracles import ReferenceEpsArchive, ReferenceNSGA2
from repro.core.algorithm import AlgorithmConfig
from repro.core.crowding import crowding_by_front
from repro.core.nsga2 import NSGA2, EpsilonArchiveNSGA2
from repro.core.operators import OperatorConfig
from repro.core.sorting import fast_nondominated_sort
from repro.sim.evaluator import ScheduleEvaluator
from repro.testing.faults import FaultPlan, InjectedFault

GENS = 8
CPS = [2, 5, 8]
SEED = 17
POP = 16

#: name -> (production class, reference class, offspring_size,
#: generations, checkpoints).  Steady state makes one child per
#: generation, so it runs longer to cover as many evaluations.
COMPOSITIONS = {
    "nsga2": (NSGA2, ReferenceNSGA2, None, GENS, CPS),
    "nsga2-ss": (NSGA2, ReferenceNSGA2, 1, 8 * GENS, [16, 40, 64]),
    "eps-archive": (EpsilonArchiveNSGA2, ReferenceEpsArchive, None, GENS, CPS),
}


def make_engine(
    system,
    trace,
    composition="nsga2",
    reference=False,
    cache_size=1000,
    parent_selection="uniform",
    seed=SEED,
    fault_hook=None,
    label="fastpath",
):
    production, oracle, offspring_size, _, _ = COMPOSITIONS[composition]
    evaluator = ScheduleEvaluator(
        system,
        trace,
        check_feasibility=False,
        cache_size=cache_size,
        fault_hook=fault_hook,
    )
    config = AlgorithmConfig(
        population_size=POP,
        offspring_size=offspring_size,
        operators=OperatorConfig(parent_selection=parent_selection),
    )
    cls = oracle if reference else production
    return cls(evaluator, config, rng=seed, label=label)


def assert_identical_histories(a, b):
    assert a.total_generations == b.total_generations
    assert a.total_evaluations == b.total_evaluations
    assert len(a.snapshots) == len(b.snapshots)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert sa.generation == sb.generation
        assert sa.evaluations == sb.evaluations
        np.testing.assert_array_equal(sa.front_points, sb.front_points)


class TestBitIdenticalFronts:
    @pytest.mark.parametrize("parent_selection", ["uniform", "tournament"])
    @pytest.mark.parametrize("composition", sorted(COMPOSITIONS))
    def test_fast_vs_reference_path(
        self, small_system, small_trace, composition, parent_selection
    ):
        *_, gens, cps = COMPOSITIONS[composition]
        fast = make_engine(
            small_system, small_trace, composition,
            parent_selection=parent_selection,
        ).run(gens, cps)
        slow = make_engine(
            small_system, small_trace, composition, reference=True,
            parent_selection=parent_selection,
        ).run(gens, cps)
        assert_identical_histories(fast, slow)

    @pytest.mark.parametrize("parent_selection", ["uniform", "tournament"])
    def test_cache_on_vs_off(self, small_system, small_trace, parent_selection):
        cached = make_engine(
            small_system, small_trace, cache_size=1000,
            parent_selection=parent_selection,
        ).run(GENS, CPS)
        uncached = make_engine(
            small_system, small_trace, cache_size=0,
            parent_selection=parent_selection,
        ).run(GENS, CPS)
        assert_identical_histories(cached, uncached)

    def test_populations_identical_every_generation(
        self, small_system, small_trace
    ):
        """Stronger than front equality: the full population (points and
        chromosomes) matches step by step."""
        fast = make_engine(small_system, small_trace)
        slow = make_engine(small_system, small_trace, reference=True,
                           cache_size=0)
        for _ in range(GENS):
            fast.step()
            slow.step()
            np.testing.assert_array_equal(
                fast.population.objectives, slow.population.objectives
            )
            np.testing.assert_array_equal(
                fast.population.assignments, slow.population.assignments
            )
            np.testing.assert_array_equal(
                fast.population.orders, slow.population.orders
            )

    def test_kill_and_resume_with_fastpath_and_cache(
        self, small_system, small_trace, tmp_path
    ):
        """The scenario that once exposed batch-composition dependence:
        the resumed engine has a cold cache, so its miss sub-batches
        differ from the uninterrupted run's — results must not."""
        straight = make_engine(small_system, small_trace).run(GENS, CPS)
        plan = FaultPlan().crash("evaluate", at_call=6)
        with pytest.raises(InjectedFault):
            make_engine(
                small_system, small_trace, fault_hook=plan.evaluation_hook()
            ).run(GENS, CPS, checkpoint_dir=str(tmp_path))
        resumed = make_engine(small_system, small_trace).run(
            GENS, CPS, checkpoint_dir=str(tmp_path), resume=True
        )
        assert_identical_histories(straight, resumed)


class TestSharedRanks:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cached_ranks_equal_fresh_sort(self, small_system, small_trace,
                                           seed):
        """The ranks carried over from environmental selection must equal
        a from-scratch front peeling of the surviving parents — the
        invariant that lets tournament selection skip a sort."""
        engine = make_engine(small_system, small_trace, seed=seed,
                             parent_selection="tournament")
        for _ in range(5):
            engine.step()
            assert engine._ranks is not None
            fresh = fast_nondominated_sort(engine.population.objectives)
            np.testing.assert_array_equal(engine._ranks, fresh)

    def test_ranks_cache_reset_forces_resort(self, small_system, small_trace):
        """Dropping the cache (as checkpoint restore does) must be safe:
        the next generation recomputes and stays on-track."""
        a = make_engine(small_system, small_trace,
                        parent_selection="tournament")
        b = make_engine(small_system, small_trace,
                        parent_selection="tournament")
        for _ in range(3):
            a.step()
            b.step()
        b._ranks = None  # simulate a restored engine
        a.step()
        b.step()
        np.testing.assert_array_equal(
            a.population.objectives, b.population.objectives
        )

    def test_crowding_by_front_matches_per_front(self, small_system,
                                                 small_trace):
        from repro.core.crowding import crowding_distance
        from repro.core.sorting import fronts_from_ranks

        engine = make_engine(small_system, small_trace)
        engine.step()
        pts = engine.population.objectives
        ranks = fast_nondominated_sort(pts)
        combined = crowding_by_front(pts, ranks)
        for front in fronts_from_ranks(ranks):
            expected = np.nan_to_num(
                crowding_distance(pts[front]), posinf=np.finfo(np.float64).max
            )
            per_front = np.nan_to_num(
                combined[front], posinf=np.finfo(np.float64).max
            )
            np.testing.assert_array_equal(per_front, expected)


class TestStageTimings:
    def test_timings_populated_after_steps(self, small_system, small_trace):
        engine = make_engine(small_system, small_trace)
        assert engine.stage_timings.as_dict() == {}
        for _ in range(3):
            engine.step()
        timings = engine.stage_timings.as_dict()
        for stage in ("selection", "variation", "evaluate", "environmental"):
            assert timings[stage]["count"] == 3
            assert timings[stage]["total_s"] >= 0.0
            assert timings[stage]["mean_ms"] >= 0.0
        engine.stage_timings.reset()
        assert engine.stage_timings.as_dict() == {}
