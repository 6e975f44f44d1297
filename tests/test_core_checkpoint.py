"""Crash-safe NSGA-II checkpoint/resume tests.

The central guarantee: a run killed at an arbitrary generation and
resumed from its durable checkpoint produces a ``RunHistory`` whose
objective points are **bit-identical** to an uninterrupted run with the
same seed.  Crashes are injected deterministically via
:mod:`repro.testing.faults` — no killing of real processes required.
"""

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointStore, EngineState, capture_state, restore_state
from repro.core.algorithm import AlgorithmConfig
from repro.core.nsga2 import NSGA2
from repro.errors import CheckpointError, CorruptArtifactError, OptimizationError
from repro.sim.evaluator import ScheduleEvaluator
from repro.testing.faults import FaultPlan, InjectedFault, corrupt_artifact

GENS = 8
CPS = [2, 5, 8]


def make_engine(system, trace, seed=11, pop=12, fault_hook=None, label="ckpt"):
    evaluator = ScheduleEvaluator(
        system, trace, check_feasibility=False, fault_hook=fault_hook
    )
    return NSGA2(
        evaluator, AlgorithmConfig(population_size=pop), rng=seed, label=label
    )


def assert_identical_histories(a, b):
    assert a.total_generations == b.total_generations
    assert a.total_evaluations == b.total_evaluations
    assert len(a.snapshots) == len(b.snapshots)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert sa.generation == sb.generation
        assert sa.evaluations == sb.evaluations
        np.testing.assert_array_equal(sa.front_points, sb.front_points)


class TestKillAndResume:
    def test_resumed_run_bit_identical(self, small_system, small_trace, tmp_path):
        straight = make_engine(small_system, small_trace).run(GENS, CPS)

        # Evaluation call 1 is the initial population (engine __init__);
        # call k+1 happens inside generation k's step.  Crashing at call
        # 6 kills the run inside generation 5, after the generation-2
        # snapshot and the generation-4 checkpoint were persisted.
        plan = FaultPlan().crash("evaluate", at_call=6)
        dying = make_engine(
            small_system, small_trace, fault_hook=plan.evaluation_hook()
        )
        with pytest.raises(InjectedFault):
            dying.run(GENS, CPS, checkpoint_dir=str(tmp_path))
        assert dying.generation == 4  # progress up to the crash survived

        resumed = make_engine(small_system, small_trace).run(
            GENS, CPS, checkpoint_dir=str(tmp_path), resume=True
        )
        assert_identical_histories(straight, resumed)

    @pytest.mark.parametrize("crash_call", [2, 4, 7])
    def test_arbitrary_crash_points(self, small_system, small_trace, tmp_path,
                                    crash_call):
        straight = make_engine(small_system, small_trace).run(GENS, CPS)
        plan = FaultPlan().crash("evaluate", at_call=crash_call)
        with pytest.raises(InjectedFault):
            make_engine(
                small_system, small_trace, fault_hook=plan.evaluation_hook()
            ).run(GENS, CPS, checkpoint_dir=str(tmp_path))
        resumed = make_engine(small_system, small_trace).run(
            GENS, CPS, checkpoint_dir=str(tmp_path), resume=True
        )
        assert_identical_histories(straight, resumed)

    def test_resume_without_checkpoint_starts_fresh(
        self, small_system, small_trace, tmp_path
    ):
        straight = make_engine(small_system, small_trace).run(GENS, CPS)
        fresh = make_engine(small_system, small_trace).run(
            GENS, CPS, checkpoint_dir=str(tmp_path), resume=True
        )
        assert_identical_histories(straight, fresh)

    def test_resume_of_completed_run(self, small_system, small_trace, tmp_path):
        done = make_engine(small_system, small_trace).run(
            GENS, CPS, checkpoint_dir=str(tmp_path)
        )
        again = make_engine(small_system, small_trace).run(
            GENS, CPS, checkpoint_dir=str(tmp_path), resume=True
        )
        assert_identical_histories(done, again)

    def test_checkpoint_every_still_identical(
        self, small_system, small_trace, tmp_path
    ):
        straight = make_engine(small_system, small_trace).run(GENS, CPS)
        plan = FaultPlan().crash("evaluate", at_call=7)
        with pytest.raises(InjectedFault):
            make_engine(
                small_system, small_trace, fault_hook=plan.evaluation_hook()
            ).run(GENS, CPS, checkpoint_dir=str(tmp_path), checkpoint_every=3)
        resumed = make_engine(small_system, small_trace).run(
            GENS, CPS, checkpoint_dir=str(tmp_path), resume=True
        )
        assert_identical_histories(straight, resumed)


class TestValidation:
    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointStore(tmp_path, "nope").load()

    def test_corrupt_checkpoint_detected(self, small_system, small_trace,
                                         tmp_path):
        make_engine(small_system, small_trace).run(
            4, checkpoint_dir=str(tmp_path)
        )
        store = CheckpointStore(tmp_path, "ckpt")
        assert store.exists()
        corrupt_artifact(store.path, seed=3)
        with pytest.raises(CorruptArtifactError):
            store.load()
        with pytest.raises(CorruptArtifactError):
            make_engine(small_system, small_trace).run(
                4, checkpoint_dir=str(tmp_path), resume=True
            )

    def test_mid_run_corruption_via_fault_plan(self, small_system, small_trace,
                                               tmp_path):
        """A corrupt-checkpoint fault rule scribbles over the checkpoint
        between save and resume — the checksum must catch it.  Both
        rules fire on the same call: the scribble lands after the last
        good save, immediately before the crash."""
        store = CheckpointStore(tmp_path, "ckpt")
        plan = (
            FaultPlan(seed=9)
            .corrupt_checkpoint("evaluate", store.path, at_call=6)
            .crash("evaluate", at_call=6)
        )
        with pytest.raises(InjectedFault):
            make_engine(
                small_system, small_trace, fault_hook=plan.evaluation_hook()
            ).run(GENS, CPS, checkpoint_dir=str(tmp_path))
        with pytest.raises(CorruptArtifactError):
            store.load()

    def test_run_param_mismatch_rejected(self, small_system, small_trace,
                                         tmp_path):
        make_engine(small_system, small_trace).run(
            4, checkpoint_dir=str(tmp_path)
        )
        with pytest.raises(CheckpointError):
            make_engine(small_system, small_trace).run(
                6, checkpoint_dir=str(tmp_path), resume=True
            )

    def test_population_shape_mismatch_rejected(self, small_system,
                                                small_trace, tmp_path):
        make_engine(small_system, small_trace, pop=12).run(
            4, checkpoint_dir=str(tmp_path)
        )
        state = CheckpointStore(tmp_path, "ckpt").load()
        other = make_engine(small_system, small_trace, pop=8)
        with pytest.raises(CheckpointError):
            restore_state(other, state)

    def test_checkpoint_every_validated(self, small_system, small_trace,
                                        tmp_path):
        with pytest.raises(OptimizationError):
            make_engine(small_system, small_trace).run(
                4, checkpoint_dir=str(tmp_path), checkpoint_every=0
            )

    def test_malformed_document_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            EngineState.from_doc({"format": "bogus/9"})
        with pytest.raises(CheckpointError):
            EngineState.from_doc([1, 2, 3])
        with pytest.raises(CheckpointError):
            EngineState.from_doc({"format": "repro.checkpoint/1"})  # no keys


class TestStateRoundTrip:
    def test_store_roundtrip_preserves_everything(
        self, small_system, small_trace, tmp_path
    ):
        engine = make_engine(small_system, small_trace)
        engine.step()
        engine.step()
        state = capture_state(engine, [], 1.25, {"generations": 2})
        store = CheckpointStore(tmp_path, engine.label)
        store.save(state)
        loaded = store.load()
        assert loaded.generation == 2
        assert loaded.evaluations == engine._evaluations
        assert loaded.elapsed_seconds == 1.25
        assert loaded.rng_state == state.rng_state
        np.testing.assert_array_equal(loaded.assignments, state.assignments)
        np.testing.assert_array_equal(loaded.orders, state.orders)
        np.testing.assert_array_equal(loaded.energies, state.energies)
        np.testing.assert_array_equal(loaded.utilities, state.utilities)

    def test_restored_engine_steps_identically(
        self, small_system, small_trace, tmp_path
    ):
        a = make_engine(small_system, small_trace)
        a.step()
        state = capture_state(a, [], 0.0, {})
        store = CheckpointStore(tmp_path, "ckpt")
        store.save(state)

        b = make_engine(small_system, small_trace, seed=999)  # different seed
        restore_state(b, store.load())
        for _ in range(3):
            a.step()
            b.step()
        np.testing.assert_array_equal(
            a.population.objectives, b.population.objectives
        )
        np.testing.assert_array_equal(
            a.population.assignments, b.population.assignments
        )

    def test_clear_removes_checkpoint(self, small_system, small_trace,
                                      tmp_path):
        make_engine(small_system, small_trace).run(
            2, checkpoint_dir=str(tmp_path)
        )
        store = CheckpointStore(tmp_path, "ckpt")
        assert store.exists()
        store.clear()
        assert not store.exists()
        store.clear()  # idempotent
