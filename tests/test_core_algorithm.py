"""Tests of the pluggable ``Algorithm`` API and its compatibility story.

Acceptance gates of the portfolio redesign:

* the refactored NSGA-II produces **bit-identical** fronts to the
  pre-refactor engine on the Figure 3 scenario
  (``tests/data/golden_figure3_fronts.json``, in the batch kernel's
  bits);
* pre-refactor checkpoints still resume, bit-identically
  (``tests/data/golden_nsga2.checkpoint.json``; the final front in
  ``golden_nsga2_resume.json`` is re-pinned to the batch kernel);
* steady-state is the same composition with ``offspring_size=1``, and
  ``offspring_size=N`` reproduces the generational run exactly;
* the registry resolves names and rejects unknown ones through
  :class:`~repro.errors.AlgorithmLookupError`;
* the old ``NSGA2Config`` entry point survives as a deprecation shim.
"""

import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.algorithm import AlgorithmConfig, EvolutionaryAlgorithm
from repro.core.nsga2 import NSGA2, NSGA2Config
from repro.core.operators import OperatorConfig
from repro.core.registry import ALGORITHMS, available_algorithms, make_algorithm
from repro.errors import AlgorithmLookupError, OptimizationError
from repro.sim.evaluator import ScheduleEvaluator

DATA = Path(__file__).parent / "data"


# -- golden bit-identity -------------------------------------------------------


class TestGoldenFigure3:
    def test_fronts_bit_identical_to_pre_refactor(self):
        """The composed NSGA-II replays the pre-refactor Figure 3 runs
        exactly: every population's front at every checkpoint matches
        the golden capture to the last bit."""
        from repro.experiments.figures import figure3

        golden = json.loads((DATA / "golden_figure3_fronts.json").read_text())
        res = figure3(checkpoints=(1, 2, 5), population_size=16,
                      base_seed=2013)
        for label, by_gen in golden["fronts"].items():
            for gen, points in by_gen.items():
                got = res.result.front(label, int(gen)).points
                np.testing.assert_array_equal(
                    got, np.asarray(points, dtype=np.float64),
                    err_msg=f"{label} generation {gen}",
                )


class TestGoldenCheckpointResume:
    def test_pre_refactor_checkpoint_resumes_bit_identically(self, tmp_path):
        """A checkpoint written by the pre-refactor engine at
        generation 3 resumes under the new API and finishes with the
        exact final front of the pre-refactor uninterrupted run."""
        from repro.experiments.datasets import dataset1

        golden = json.loads((DATA / "golden_nsga2_resume.json").read_text())
        shutil.copy(DATA / "golden_nsga2.checkpoint.json",
                    tmp_path / "golden.checkpoint.json")
        bundle = dataset1(2013)
        # The checkpoint's stored objectives came from the retired
        # per-row kernel; the offspring evaluated after resume come
        # from the batch kernel, whose last float bits differ, so the
        # pinned final front is the batch kernel's.
        evaluator = ScheduleEvaluator(bundle.system, bundle.trace,
                                      check_feasibility=False)
        ga = NSGA2(
            evaluator,
            AlgorithmConfig(population_size=12, mutation_probability=0.25),
            rng=2013,
            label="golden",
        )
        history = ga.run(6, checkpoints=[3, 6],
                         checkpoint_dir=str(tmp_path), resume=True)
        np.testing.assert_array_equal(
            history.final.front_points,
            np.asarray(golden["final_front"], dtype=np.float64),
        )


# -- steady-state composition --------------------------------------------------


class TestOffspringSize:
    def test_full_offspring_size_matches_generational(self, small_evaluator,
                                                      small_system,
                                                      small_trace):
        """``offspring_size=N`` (N even) draws the same tournaments in
        the same order as the legacy generational path, so the runs are
        bit-identical."""
        def run(offspring_size):
            ev = ScheduleEvaluator(small_system, small_trace,
                                   check_feasibility=False)
            ga = NSGA2(
                ev,
                AlgorithmConfig(population_size=20,
                                offspring_size=offspring_size,
                                mutation_probability=0.5),
                rng=7,
            )
            return ga.run(6, checkpoints=[6])

        legacy = run(None)
        explicit = run(20)
        np.testing.assert_array_equal(
            legacy.final.front_points, explicit.final.front_points
        )

    def test_steady_state_advances_one_offspring_per_step(self,
                                                          small_evaluator):
        ga = make_algorithm(
            "nsga2-ss", small_evaluator,
            AlgorithmConfig(population_size=12, mutation_probability=0.5),
            rng=3,
        )
        before = ga._evaluations
        ga.step()
        # offspring_size=1: a single candidate enters the meta-population.
        assert ga.population.size == 12
        assert ga._evaluations - before == 1

    def test_steady_state_front_still_improves(self, small_evaluator):
        from repro.analysis.indicators import hypervolume

        ga = make_algorithm(
            "nsga2-ss", small_evaluator,
            AlgorithmConfig(population_size=12, mutation_probability=0.5),
            rng=11,
        )
        ref = (1e9, 0.0)
        ga.step()
        pts0, _ = ga.current_front()
        hv0 = hypervolume(pts0, ref)
        for _ in range(40):
            ga.step()
        pts1, _ = ga.current_front()
        assert hypervolume(pts1, ref) >= hv0 - 1e-9


# -- registry ------------------------------------------------------------------


class TestRegistry:
    def test_available_algorithms_sorted_and_complete(self):
        names = available_algorithms()
        assert names == tuple(sorted(ALGORITHMS))
        assert {"nsga2", "nsga2-ss", "spea2", "moead",
                "eps-archive"} <= set(names)

    def test_unknown_name_raises_lookup_error(self, small_evaluator):
        with pytest.raises(AlgorithmLookupError) as err:
            make_algorithm("annealing", small_evaluator,
                           AlgorithmConfig(population_size=8))
        assert "annealing" in str(err.value)
        assert "nsga2" in str(err.value)  # the message lists valid names

    def test_lookup_error_is_an_optimization_error(self):
        assert issubclass(AlgorithmLookupError, OptimizationError)

    def test_every_registered_algorithm_runs(self, small_evaluator,
                                             small_system, small_trace):
        """Smoke: each registry entry completes a short run through the
        uniform Algorithm API and yields a nondominated front."""
        from repro.core.dominance import nondominated_mask

        for name in available_algorithms():
            ev = ScheduleEvaluator(small_system, small_trace,
                                   check_feasibility=False)
            ga = make_algorithm(
                name, ev,
                AlgorithmConfig(population_size=12,
                                mutation_probability=0.5),
                rng=5, label=name,
            )
            history = ga.run(3, checkpoints=[3])
            pts = history.final.front_points
            assert pts.shape[0] >= 1, name
            assert nondominated_mask(pts).all(), name

    def test_callable_factory_accepted(self, small_evaluator):
        ga = make_algorithm(NSGA2, small_evaluator,
                            AlgorithmConfig(population_size=8))
        assert ga.name == "nsga2"


# -- config API ----------------------------------------------------------------


class TestAlgorithmConfig:
    def test_keyword_only(self):
        with pytest.raises(TypeError):
            AlgorithmConfig(30)  # positional population_size rejected

    def test_mutation_probability_collapses_into_operators(self):
        config = AlgorithmConfig(population_size=10, mutation_probability=0.7)
        assert config.operators.mutation_probability == 0.7

    def test_explicit_operators_preserved_without_override(self):
        ops = OperatorConfig(mutation_probability=0.1)
        config = AlgorithmConfig(population_size=10, operators=ops)
        assert config.operators.mutation_probability == 0.1

    def test_offspring_size_validated(self):
        with pytest.raises(OptimizationError):
            AlgorithmConfig(population_size=10, offspring_size=0)


class TestNSGA2ConfigShim:
    def test_warns_and_builds_algorithm_config(self):
        with pytest.warns(DeprecationWarning):
            config = NSGA2Config(population_size=14)
        assert isinstance(config, AlgorithmConfig)
        assert config.population_size == 14

    def test_shim_config_drives_the_engine(self, small_evaluator):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            config = NSGA2Config(population_size=8)
        ga = NSGA2(small_evaluator, config, rng=1)
        ga.step()
        assert ga.population.size == 8


class TestTemplateHooks:
    def test_nsga2_is_an_evolutionary_algorithm(self):
        assert issubclass(NSGA2, EvolutionaryAlgorithm)

    def test_subclass_must_implement_replacement(self, small_evaluator):
        class Incomplete(EvolutionaryAlgorithm):
            name = "incomplete"

        ga = Incomplete(small_evaluator, AlgorithmConfig(population_size=8))
        with pytest.raises(NotImplementedError):
            ga.step()
