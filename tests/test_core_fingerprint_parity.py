"""Edit-based fingerprints change no engine result.

Every registered optimizer evaluates its offspring as edits of their
base parents.  The hint only decides how much the batch kernel hashes:
runs with and without it must give byte-identical histories, fronts
and cache counters, a run resumed from a checkpoint (whose rows carry
no fingerprints) must match the uninterrupted one, and the fingerprints
a population carries must always be those of its own genes.  The
populations here are small, so the kernel's size floor for editing is
lowered to zero.
"""

import numpy as np
import pytest

from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.core.population import Population
from repro.core.registry import available_algorithms, make_algorithm
from repro.sim import batchkernel
from repro.sim.evaluator import ScheduleEvaluator
from repro.testing.faults import FaultPlan, InjectedFault

GENS = 8
CHECKPOINTS = [2, 5, 8]


@pytest.fixture(autouse=True)
def edit_any_size(monkeypatch):
    monkeypatch.setattr(batchkernel, "EDIT_MIN_ELEMENTS", 0)


def engine(system, trace, name, pop=11, fault_hook=None):
    ev = ScheduleEvaluator(system, trace, check_feasibility=False,
                           fault_hook=fault_hook)
    return make_algorithm(name, ev, AlgorithmConfig(population_size=pop),
                          rng=23, label=name)


def without_hints(monkeypatch):
    """Evaluate every population in full, ignoring base parents."""
    evaluate = Population.evaluate

    def full(self, evaluator, parents=None, bases=None):
        return evaluate(self, evaluator)

    monkeypatch.setattr(Population, "evaluate", full)


def assert_same_runs(a, b):
    assert a.total_generations == b.total_generations
    assert a.total_evaluations == b.total_evaluations
    assert len(a.snapshots) == len(b.snapshots)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert sa.generation == sb.generation
        assert sa.evaluations == sb.evaluations
        assert sa.front_points.tobytes() == sb.front_points.tobytes()
    fa, fb = a.final, b.final
    assert fa.front_assignments.tobytes() == fb.front_assignments.tobytes()
    assert fa.front_orders.tobytes() == fb.front_orders.tobytes()


def scratch_fingerprints(algo, population):
    """The fingerprints a fresh evaluator computes for *population*."""
    ev = algo.evaluator
    fresh = ScheduleEvaluator(ev.system, ev.trace, check_feasibility=False)
    return fresh.evaluate_rows(population.assignments, population.orders)[2]


@pytest.mark.parametrize("name", available_algorithms())
class TestEngineParity:
    def test_hints_change_nothing(self, small_system, small_trace, name,
                                  monkeypatch):
        hinted = engine(small_system, small_trace, name)
        with_hints = hinted.run(GENS, CHECKPOINTS)
        stats = hinted.evaluator.cache_stats
        with monkeypatch.context() as m:
            without_hints(m)
            full = engine(small_system, small_trace, name)
            without = full.run(GENS, CHECKPOINTS)
        assert_same_runs(with_hints, without)
        for key in ("hits", "misses", "elements_total", "elements_reused"):
            assert stats[key] == full.evaluator.cache_stats[key], key
        T = small_trace.num_tasks
        # Full hashing covers every element; edits cover far fewer.
        assert (full.evaluator.cache_stats["elements_hashed"]
                == full.evaluations * T)
        assert stats["elements_hashed"] < full.evaluations * T

    def test_population_carries_its_own_fingerprints(
        self, small_system, small_trace, name
    ):
        algo = engine(small_system, small_trace, name)
        for _ in range(5):
            algo.step()
            population = algo.population
            np.testing.assert_array_equal(
                population.fingerprints,
                scratch_fingerprints(algo, population))

    def test_resume_rederives_fingerprints(self, small_system, small_trace,
                                           name, tmp_path):
        straight = engine(small_system, small_trace, name).run(
            GENS, CHECKPOINTS)
        # Call 1 evaluates the initial population; call 6 is inside
        # generation 5, after the generation-4 checkpoint.
        plan = FaultPlan().crash("evaluate", at_call=6)
        dying = engine(small_system, small_trace, name,
                       fault_hook=plan.evaluation_hook())
        with pytest.raises(InjectedFault):
            dying.run(GENS, CHECKPOINTS, checkpoint_dir=str(tmp_path))
        revived = engine(small_system, small_trace, name)
        resumed = revived.run(GENS, CHECKPOINTS,
                              checkpoint_dir=str(tmp_path), resume=True)
        assert_same_runs(straight, resumed)
        population = revived.population
        fp = population.fingerprints
        assert fp is not None
        # Restored parents that survived carry zero rows (no state);
        # every other row holds its genes' fingerprints.
        stateful = fp.any(axis=1)
        assert stateful.any()
        np.testing.assert_array_equal(
            fp[stateful], scratch_fingerprints(revived, population)[stateful])

    def test_select_and_concatenate_on_handed_out_population(
        self, small_system, small_trace, name
    ):
        algo = engine(small_system, small_trace, name)
        algo.step()
        held = algo.population
        picked = held.select(np.arange(held.size)[::-2])
        both = held.concatenate(picked)
        snapshot = [(p.assignments.copy(), p.orders.copy(),
                     p.fingerprints.copy()) for p in (picked, both)]
        for _ in range(3):
            algo.step()
        for p, (a, o, fp) in zip((picked, both), snapshot):
            np.testing.assert_array_equal(p.assignments, a)
            np.testing.assert_array_equal(p.orders, o)
            np.testing.assert_array_equal(p.fingerprints, fp)
            np.testing.assert_array_equal(p.fingerprints,
                                          scratch_fingerprints(algo, p))


class BaselessNSGA2(NSGA2):
    """A variation override written before base parents existed: it
    never fills *base_out*."""

    def _variation(self, parents, parent_pairs, out, base_out):
        child_assign, child_order = self.operators.crossover_population(
            parents.assignments, parents.orders, self._rng,
            parent_pairs=parent_pairs,
            n_offspring=self.config.offspring_size, out=out,
        )
        return self.operators.mutate_population(child_assign, child_order,
                                                self._rng)


def test_variation_override_that_ignores_base_out(small_system,
                                                  small_trace):
    """Unfilled bases name parent 0: exact, and the run matches the
    default variation's draw for draw."""
    def run(cls):
        ev = ScheduleEvaluator(small_system, small_trace,
                               check_feasibility=False)
        algo = cls(ev, AlgorithmConfig(population_size=11), rng=23)
        result = algo.run(GENS, CHECKPOINTS)
        np.testing.assert_array_equal(
            algo.population.fingerprints,
            scratch_fingerprints(algo, algo.population))
        return result, ev.cache_stats

    (plain, plain_stats), (baseless, stats) = run(NSGA2), run(BaselessNSGA2)
    assert_same_runs(plain, baseless)
    for key in ("hits", "misses", "elements_total", "elements_reused"):
        assert stats[key] == plain_stats[key], key
