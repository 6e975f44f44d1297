"""Population-at-once batch kernel: exactness, reuse transparency.

The batch kernel evaluates a whole population with one composite sort
and the shared queue fold, reusing per-machine queue states across
generations.  Its contract has two halves, and every test here pins
one of them:

* **Exactness** — results are bit-identical to the scalar oracle
  :func:`~repro.sim.batchkernel.batch_reference_row`, which computes
  every queue with plain Python left folds.
* **Reuse transparency** — caching only skips work, never changes
  results: cache on/off/cleared, any batch composition, serial or
  parallel, all bit-identical.

Adversarial shapes (empty queues, single-task machines, duplicate
priorities, degenerate and large populations, huge order keys) target
the kernel's padding, segment bookkeeping, and hash fallbacks.
"""

import math
import weakref

import numpy as np
import pytest

from conftest import OracleEvaluator

from repro.core.algorithm import AlgorithmConfig
from repro.core.operators import FeasibleMachines
from repro.core.registry import available_algorithms, make_algorithm
from repro.experiments.config import SPEC_VERSION, ExperimentConfig
from repro.experiments.datasets import DatasetBundle
from repro.experiments.repetitions import run_repetitions
from repro.experiments.runner import RetryPolicy, run_seeded_populations
from repro.model.system import SystemModel
from repro.sim.batchkernel import BatchQueueKernel, batch_reference_row
from repro.sim.evaluator import ScheduleEvaluator
from repro.sim.makespan import MakespanEnergyEvaluator
from repro.sim.schedule import ResourceAllocation
from repro.testing.faults import FaultPlan
from repro.utility.presets import assign_presets
from repro.workload.generator import WorkloadGenerator
from repro.workload.trace import Trace


def make_batch(system, trace, n_rows, seed):
    """Random feasible (assignments, orders) rows for (system, trace)."""
    rng = np.random.default_rng(seed)
    feasible = FeasibleMachines.from_system_trace(system, trace)
    assignments = feasible.sample_matrix(n_rows, rng)
    orders = np.array(
        [rng.permutation(trace.num_tasks) for _ in range(n_rows)]
    )
    return assignments, orders


def batch_ev(system, trace, **kwargs):
    kwargs.setdefault("check_feasibility", False)
    return ScheduleEvaluator(system, trace, **kwargs)


def oracle_batch(ev, assignments, orders):
    """(energies, utilities) via the scalar oracle, row by row."""
    rows = [batch_reference_row(ev, a, o)
            for a, o in zip(assignments, orders)]
    return (np.array([r[0] for r in rows]),
            np.array([r[1] for r in rows]))


def assert_matches_oracle(ev, assignments, orders):
    e, u = ev.evaluate_batch(assignments, orders)
    eo, uo = oracle_batch(ev, assignments, orders)
    np.testing.assert_array_equal(e, eo)
    np.testing.assert_array_equal(u, uo)


@pytest.fixture(scope="module")
def bundle() -> DatasetBundle:
    """Seeded random bundle for engine/parallel-level tests."""
    rng = np.random.default_rng(31)
    etc = rng.uniform(5.0, 120.0, size=(5, 6))
    epc = rng.uniform(40.0, 250.0, size=(5, 6))
    system = SystemModel.from_matrices(
        etc, epc, machines_per_type=[1, 2, 1, 1, 2, 1]
    ).with_utility_functions(assign_presets(5, 600.0, seed=32))
    trace = WorkloadGenerator.uniform_for(5).generate(40, 600.0, seed=33)
    return DatasetBundle(
        name="batch-test", system=system, trace=trace,
        horizon_seconds=600.0, seed=0,
    )


# -- exactness against the scalar oracle --------------------------------------


class TestOracleBitIdentity:
    def test_random_batches_cold_and_warm(self, small_system, small_trace):
        ev = batch_ev(small_system, small_trace)
        for seed in (0, 1):  # second batch hits warm queue states
            assignments, orders = make_batch(
                small_system, small_trace, 30, seed
            )
            assert_matches_oracle(ev, assignments, orders)
        # Replaying batch 1 is served almost entirely from cache and
        # must still be bit-identical.
        assert_matches_oracle(ev, assignments, orders)

    def test_all_tasks_on_one_machine(self, small_system, small_trace):
        """Every other queue is empty — the padded fold matrices are
        maximally ragged (one row of length T, the rest length 0)."""
        ev = batch_ev(small_system, small_trace)
        T = small_trace.num_tasks
        M = small_system.num_machines
        rng = np.random.default_rng(2)
        assignments = np.repeat(
            np.arange(M, dtype=np.int64), 1
        )[:0]  # placeholder, built below
        rows_a, rows_o = [], []
        for m in range(M):
            rows_a.append(np.full(T, m, dtype=np.int64))
            rows_o.append(rng.permutation(T))
        assignments = np.array(rows_a)
        orders = np.array(rows_o)
        assert_matches_oracle(ev, assignments, orders)

    def test_single_task_machines(self, small_system, small_trace):
        """Round-robin placement: every queue holds at most
        ceil(T / M) tasks; with a shuffled variant some hold one."""
        ev = batch_ev(small_system, small_trace)
        T = small_trace.num_tasks
        M = small_system.num_machines
        rng = np.random.default_rng(3)
        round_robin = (np.arange(T, dtype=np.int64) % M)
        # One task on machine 0, the rest crowded onto machine 1.
        lonely = np.full(T, 1, dtype=np.int64)
        lonely[T // 2] = 0
        assignments = np.array([round_robin, lonely])
        orders = np.array([rng.permutation(T) for _ in range(2)])
        assert_matches_oracle(ev, assignments, orders)

    def test_duplicate_priorities(self, small_system, small_trace):
        """Tied order keys break ties by task index — in the kernel's
        composite sort and in the oracle's (order, task) sort alike."""
        ev = batch_ev(small_system, small_trace)
        T = small_trace.num_tasks
        rng = np.random.default_rng(4)
        assignments, _ = make_batch(small_system, small_trace, 3, 4)
        orders = np.array([
            np.zeros(T, dtype=np.int64),          # all tied
            rng.integers(0, 3, size=T),           # heavy ties
            np.repeat(np.arange(T // 2), 2)[:T],  # pairwise ties
        ])
        assert_matches_oracle(ev, assignments, orders)

    def test_population_of_one(self, small_system, small_trace):
        ev = batch_ev(small_system, small_trace)
        assignments, orders = make_batch(small_system, small_trace, 1, 5)
        assert_matches_oracle(ev, assignments, orders)

    def test_population_of_1000(self, small_system, small_trace):
        ev = batch_ev(small_system, small_trace)
        assignments, orders = make_batch(small_system, small_trace, 1000, 6)
        assert_matches_oracle(ev, assignments, orders)

    def test_large_order_keys_use_hash_fallback(
        self, small_system, small_trace
    ):
        """Order keys around 2^40 overflow the precomputed order-hash
        table, taking the arithmetic-mix fallback; results must match
        the oracle and the rank-equivalent small keys exactly."""
        ev = batch_ev(small_system, small_trace)
        assignments, orders = make_batch(small_system, small_trace, 8, 7)
        big = orders * np.int64(2**40) - np.int64(2**39)
        assert_matches_oracle(ev, assignments, big)
        e_small, u_small = ev.evaluate_batch(assignments, orders)
        e_big, u_big = ev.evaluate_batch(assignments, big)
        np.testing.assert_array_equal(e_small, e_big)
        np.testing.assert_array_equal(u_small, u_big)

    def test_tiny_system_hand_checkable(self, tiny_system, tiny_trace):
        ev = batch_ev(tiny_system, tiny_trace)
        assignments, orders = make_batch(tiny_system, tiny_trace, 16, 8)
        assert_matches_oracle(ev, assignments, orders)


# -- evaluate() on the shared fold ------------------------------------------


def assert_evaluate_matches_oracle(ev, assignment, order):
    """``evaluate()`` equals the scalar oracle as bytes: totals,
    per-task finish times, and the utilities those finish times earn."""
    result = ev.evaluate(ResourceAllocation(
        machine_assignment=assignment, scheduling_order=order,
    ))
    energy, utility, finish = batch_reference_row(ev, assignment, order)
    assert np.float64(result.energy).tobytes() == np.float64(energy).tobytes()
    assert np.float64(result.utility).tobytes() == \
        np.float64(utility).tobytes()
    assert result.completion_times.tobytes() == finish.tobytes()
    earned = ev.tuf_table.evaluate(ev._task_types, finish - ev._arrivals)
    assert result.task_utilities.tobytes() == earned.tobytes()


class TestEvaluateMatchesOracle:
    def test_random_allocations(self, small_system, small_trace):
        ev = batch_ev(small_system, small_trace)
        assignments, orders = make_batch(small_system, small_trace, 20, 50)
        for a, o in zip(assignments, orders):
            assert_evaluate_matches_oracle(ev, a, o)

    def test_dvfs_queue_groups(self, small_system, small_trace):
        """Several virtual machines share one physical queue."""
        from repro.extensions.dvfs import make_dvfs_evaluator

        ev = make_dvfs_evaluator(small_system, small_trace)
        assert ev._num_queues < ev.num_machines
        assignments, orders = make_batch(ev.system, small_trace, 12, 51)
        for a, o in zip(assignments, orders):
            assert_evaluate_matches_oracle(ev, a, o)

    def test_duplicate_order_keys(self, small_system, small_trace):
        ev = batch_ev(small_system, small_trace)
        T = small_trace.num_tasks
        rng = np.random.default_rng(52)
        assignments, _ = make_batch(small_system, small_trace, 3, 52)
        for a, o in zip(assignments, [np.zeros(T, dtype=np.int64),
                                      rng.integers(0, 3, size=T),
                                      np.repeat(np.arange(T), 2)[:T]]):
            assert_evaluate_matches_oracle(ev, a, o)

    def test_single_task_and_empty_machines(self, small_system, small_trace):
        """One task alone on machine 0, every other task on machine 1,
        the remaining machines empty."""
        ev = batch_ev(small_system, small_trace)
        T = small_trace.num_tasks
        lonely = np.full(T, 1, dtype=np.int64)
        lonely[T // 2] = 0
        rng = np.random.default_rng(53)
        for _ in range(3):
            assert_evaluate_matches_oracle(ev, lonely, rng.permutation(T))

    def test_arrivals_near_2_40(self, small_system, small_trace):
        """Arrivals of magnitude 2⁴⁰ with full mantissas: the fold must
        keep every low bit the oracle keeps."""
        rng = np.random.default_rng(54)
        T = small_trace.num_tasks
        trace = Trace(
            task_types=small_trace.task_types,
            arrival_times=np.sort(2.0**40 + rng.uniform(0.0, 900.0, size=T)),
            window=2.0**41,
        )
        ev = batch_ev(small_system, trace)
        assignments, orders = make_batch(small_system, trace, 8, 54)
        for a, o in zip(assignments, orders):
            assert_evaluate_matches_oracle(ev, a, o)
        assert_matches_oracle(ev, assignments, orders)


# -- reuse transparency -------------------------------------------------------


class TestReuseTransparency:
    def test_cache_on_off_clear_bit_identical(
        self, small_system, small_trace
    ):
        on = batch_ev(small_system, small_trace)
        off = batch_ev(small_system, small_trace, cache_size=0)
        for seed in range(6):
            # Overlapping batches: half of each repeats the previous
            # seed, forcing real queue-state hits on the cached path.
            a0, o0 = make_batch(small_system, small_trace, 20, seed)
            a1, o1 = make_batch(small_system, small_trace, 20, max(seed - 1, 0))
            assignments = np.vstack([a0, a1])
            orders = np.vstack([o0, o1])
            e_on, u_on = on.evaluate_batch(assignments, orders)
            e_off, u_off = off.evaluate_batch(assignments, orders)
            np.testing.assert_array_equal(e_on, e_off)
            np.testing.assert_array_equal(u_on, u_off)
            if seed == 3:
                on.clear_cache()  # mid-stream clear must be invisible
        assert on.cache_stats["hits"] > 0  # the cached path really hit

    def test_cache_size_zero_reports_no_reuse(
        self, small_system, small_trace
    ):
        ev = batch_ev(small_system, small_trace, cache_size=0)
        assignments, orders = make_batch(small_system, small_trace, 10, 9)
        ev.evaluate_batch(assignments, orders)
        ev.evaluate_batch(assignments, orders)  # replay: would all hit
        stats = ev.cache_stats
        assert stats["hits"] == 0
        assert stats["elements_reused"] == 0
        assert stats["reuse_rate"] == 0.0

    def test_stats_surface(self, small_system, small_trace):
        ev = batch_ev(small_system, small_trace)
        assignments, orders = make_batch(small_system, small_trace, 10, 11)
        ev.evaluate_batch(assignments, orders)
        ev.evaluate_batch(assignments, orders)
        stats = ev.cache_stats
        for key in ("hits", "misses", "entries", "elements_total",
                    "elements_reused", "reuse_rate"):
            assert key in stats
        assert stats["hits"] > 0
        assert 0.0 < stats["reuse_rate"] <= 1.0
        batch = ev._batch_kernel.last_batch
        assert batch["rows"] == 10
        assert batch["elements"] == 10 * small_trace.num_tasks
        ev.clear_cache()
        assert ev.cache_stats["entries"] == 0


# -- evaluator integration ----------------------------------------------------


class TestEvaluatorIntegration:
    def test_batch_reference_mode_matches_batch(
        self, small_system, small_trace
    ):
        fast = batch_ev(small_system, small_trace)
        ref = OracleEvaluator(small_system, small_trace,
                              check_feasibility=False)
        assignments, orders = make_batch(small_system, small_trace, 15, 12)
        e0, u0 = fast.evaluate_batch(assignments, orders)
        e1, u1 = ref.evaluate_batch(assignments, orders)
        np.testing.assert_array_equal(e0, e1)
        np.testing.assert_array_equal(u0, u1)

    def test_evaluate_single_matches_batch_row(
        self, small_system, small_trace
    ):
        ev = batch_ev(small_system, small_trace)
        assignments, orders = make_batch(small_system, small_trace, 4, 13)
        energies, utilities = ev.evaluate_batch(assignments, orders)
        for i in range(4):
            result = ev.evaluate(ResourceAllocation(
                machine_assignment=assignments[i],
                scheduling_order=orders[i],
            ))
            assert result.energy == energies[i]
            assert result.utility == utilities[i]

    def test_invalid_kernel_method_rejected(
        self, small_system, small_trace
    ):
        """The kernel switch is gone: naming a kernel fails loudly
        instead of silently evaluating with the one kernel."""
        with pytest.raises(TypeError, match="kernel_method"):
            ScheduleEvaluator(small_system, small_trace,
                              kernel_method="fast")


# -- all algorithms share the batch path --------------------------------------


class TestAlgorithmsOnBatchKernel:
    @pytest.mark.parametrize("name", available_algorithms())
    def test_front_bit_identical_to_oracle_kernel(
        self, name, small_system, small_trace
    ):
        """Each registered algorithm run on the batch kernel produces
        the same front, bit for bit, as on the scalar oracle —
        evaluation goes through ``evaluate_batch`` everywhere."""
        fronts = []
        for cls in (ScheduleEvaluator, OracleEvaluator):
            ev = cls(small_system, small_trace, check_feasibility=False)
            ga = make_algorithm(
                name, ev,
                AlgorithmConfig(population_size=12,
                                mutation_probability=0.5),
                rng=5, label=name,
            )
            history = ga.run(3, checkpoints=[3])
            fronts.append(history.final.front_points)
        np.testing.assert_array_equal(fronts[0], fronts[1])


# -- parallel and resume ------------------------------------------------------


class TestParallelAndResume:
    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_parallel_matches_serial(self, bundle, transport):
        serial = run_repetitions(
            bundle, repetitions=3, generations=4, population_size=10,
        )
        parallel = run_repetitions(
            bundle, repetitions=3, generations=4, population_size=10,
            workers=2, transport=transport,
        )
        for s, p in zip(serial.fronts, parallel.fronts):
            np.testing.assert_array_equal(s, p)
        assert serial.hypervolume == parallel.hypervolume

    def test_checkpoint_resume_bit_identical(self, bundle, tmp_path):
        cfg = ExperimentConfig(
            population_size=10, generations=4, checkpoints=(2, 4),
            base_seed=5,
        )
        clean = run_seeded_populations(bundle, cfg, labels=["random"])
        plan = FaultPlan().crash("evaluate", at_call=4)
        retried = run_seeded_populations(
            bundle, cfg, labels=["random"],
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0),
            evaluation_fault_hook=plan.evaluation_hook(),
            checkpoint_dir=str(tmp_path),
            sleep=lambda s: None,
        )
        assert retried.failures == ()
        for a, b in zip(clean.histories["random"].snapshots,
                        retried.histories["random"].snapshots):
            assert a.generation == b.generation
            np.testing.assert_array_equal(a.front_points, b.front_points)


# -- makespan evaluator -------------------------------------------------------


def direct_makespan(ev, assignment, order):
    """Makespan by the paper's recurrence ``f_j = max(f_{j-1}, a_j) +
    e_j``, one task at a time — a formulation independent of the
    kernel's prefix-sum closed form, so it agrees only to float
    association."""
    finish = {}
    for t in np.lexsort((np.arange(ev.num_tasks), order, assignment)):
        m = int(assignment[t])
        e = float(ev._etc_flat[t * ev.num_machines + m])
        finish[m] = max(finish.get(m, -math.inf), float(ev._arrivals[t])) + e
    return max(finish.values())


class TestMakespanBatchKernel:
    @pytest.mark.parametrize("bag_of_tasks", [True, False])
    def test_batch_matches_fast(self, small_system, small_trace,
                                bag_of_tasks):
        """The kernel's makespans agree with the direct recurrence to
        float association, and its energies with a plain EEC sum."""
        batch = MakespanEnergyEvaluator(small_system, small_trace,
                                        bag_of_tasks=bag_of_tasks)
        for seed in (20, 21):
            assignments, orders = make_batch(
                small_system, small_trace, 25, seed
            )
            energies, neg_makespans = batch.evaluate_batch(assignments, orders)
            for i in range(25):
                np.testing.assert_allclose(
                    -neg_makespans[i],
                    direct_makespan(batch, assignments[i], orders[i]),
                    rtol=1e-12,
                )
            eec = batch._eec_rows[np.arange(small_trace.num_tasks),
                                  assignments]
            np.testing.assert_allclose(energies, eec.sum(axis=1),
                                       rtol=1e-12)

    def test_batch_matches_oracle_makespan(self, small_system, small_trace):
        """Makespans are the per-row maximum of the oracle's finish
        times (``max`` is rounding-free), cold and from cached queue
        states."""
        batch = MakespanEnergyEvaluator(small_system, small_trace)
        assignments, orders = make_batch(small_system, small_trace, 6, 22)
        for _ in range(2):
            energies, neg_makespans = batch.evaluate_batch(assignments, orders)
            for i in range(6):
                energy, _, finish = batch_reference_row(
                    batch, assignments[i], orders[i]
                )
                assert energies[i] == energy
                assert -neg_makespans[i] == finish.max()

    def test_invalid_kernel_rejected(self, small_system, small_trace):
        """The kernel switch is gone from the makespan evaluator too."""
        with pytest.raises(TypeError, match="kernel_method"):
            MakespanEnergyEvaluator(small_system, small_trace,
                                    kernel_method="reference")


# -- lifetime -------------------------------------------------------------------


class TestFreedOnRefcount:
    """The kernel binds the evaluator's arrays, not the evaluator, so
    evaluator and kernel form no reference cycle: a dropped evaluator
    (and its scratch pools) is freed at once, not at the next cyclic
    collection."""

    @pytest.mark.parametrize("cls", [ScheduleEvaluator,
                                     MakespanEnergyEvaluator])
    def test_dropped_evaluator_is_freed(self, cls, small_system,
                                        small_trace, gc_disabled):
        ev = cls(small_system, small_trace)
        ev.evaluate_batch(*make_batch(small_system, small_trace, 8, 40))
        kernel = ev._batch_kernel
        assert all(value is not ev for value in vars(kernel).values())
        ev_ref = weakref.ref(ev)
        kernel_ref = weakref.ref(kernel)
        del ev, kernel
        assert ev_ref() is None
        assert kernel_ref() is None


# -- experiment config plumbing -----------------------------------------------


class TestConfigPlumbing:
    def test_spec_roundtrip(self):
        cfg = ExperimentConfig(population_size=10, generations=4,
                               checkpoints=(4,))
        spec = cfg.to_spec()
        assert spec["spec_version"] == SPEC_VERSION
        assert "kernel_method" not in spec
        assert ExperimentConfig.from_spec(spec) == cfg
        assert ExperimentConfig.from_spec(spec).to_spec() == spec

    @pytest.mark.parametrize("legacy", [{"kernel_method": "batch"}, {}],
                             ids=["named-kernel", "pre-kernel-switch"])
    def test_legacy_spec_is_not_current(self, legacy):
        """Older specs — one naming a kernel, and one from before the
        switch (read as the retired ``fast`` kernel) — rebuild a config
        whose spec differs from theirs, so their grids rotate."""
        cfg = ExperimentConfig(population_size=10, generations=4,
                               checkpoints=(4,))
        spec = cfg.to_spec()
        del spec["spec_version"]
        spec.update(legacy)
        rebuilt = ExperimentConfig.from_spec(spec)
        assert rebuilt == cfg
        assert rebuilt.to_spec() != spec

    def test_invalid_kernel_method_rejected(self):
        """The knob is gone from the config: naming it is an error."""
        with pytest.raises(TypeError, match="kernel_method"):
            ExperimentConfig(population_size=10, generations=4,
                             checkpoints=(4,), kernel_method="turbo")
