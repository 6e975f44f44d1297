"""Batch-kernel helpers pinned one by one to plain-Python oracles.

Each vectorized step of :mod:`repro.sim.batchkernel` (and the TUF
evaluation it calls) must compute exactly what a slow, obviously
correct formulation computes — bit for bit, on inputs chosen where a
different association, a lost wrap-around or a different tie order
would show:

* the queue fingerprint is a wrapping uint64 sum, checked against a
  Python-int sum mod 2⁶⁴ on hashes that overflow;
* the queue order equals ``np.lexsort((order_key, group))`` on every
  code path (composite sort, stable argsort, lexsort);
* the per-queue utility/energy totals are left folds from +0.0, on
  values where any other association changes the bits;
* :meth:`TUFTable.evaluate` equals the masked-gather formulation it
  replaced, compared as bytes.
"""

import numpy as np
import pytest

from oracles import batch_reference_row
from repro.sim.batchkernel import (
    KernelScratch,
    _column_left_folds,
    _segment_key_sums,
    queue_order,
)
from repro.sim.evaluator import EvaluatorArrays, ScheduleEvaluator
from repro.utility.intervals import DecayShape
from repro.utility.presets import default_catalog
from repro.utility.tuf import SEGMENT_KIND, TimeUtilityFunction
from repro.utility.vectorized import TUFTable

MOD64 = 1 << 64


# -- fingerprints -------------------------------------------------------------


def python_key_sums(h, seg, n_seg):
    sums = [0] * n_seg
    for value, s in zip(h.tolist(), seg.tolist()):
        sums[s] += value
    return np.array([x % MOD64 for x in sums], dtype=np.uint64)


class TestSegmentKeySums:
    def test_wraps_mod_2_64(self):
        rng = np.random.default_rng(1)
        # Hashes within 2**20 of 2**64: every pair overflows.
        h = (np.uint64(MOD64 - 1)
             - rng.integers(0, 1 << 20, size=5000).astype(np.uint64))
        seg = rng.integers(0, 37, size=5000)
        np.testing.assert_array_equal(
            _segment_key_sums(h, seg, 40), python_key_sums(h, seg, 40)
        )

    def test_uniform_hashes_and_empty_segments(self):
        rng = np.random.default_rng(2)
        h = rng.integers(0, MOD64, size=3000, dtype=np.uint64)
        seg = rng.choice([0, 3, 4, 9], size=3000)
        out = _segment_key_sums(h, seg, 12)
        np.testing.assert_array_equal(out, python_key_sums(h, seg, 12))
        assert out[[1, 2, 5, 11]].tolist() == [0, 0, 0, 0]

    def test_segment_longer_than_2_21_elements(self):
        """Past 2**21 near-2**64 hashes even one 32-bit half sums past
        2**53, where a float64 accumulator would round."""
        n = (1 << 21) + 4097
        rng = np.random.default_rng(3)
        h = rng.integers(MOD64 - (1 << 40), MOD64, size=n, dtype=np.uint64)
        seg = np.zeros(n, dtype=np.int64)
        seg[-3:] = 1
        expected = np.array(
            [sum(h[:-3].tolist()) % MOD64, sum(h[-3:].tolist()) % MOD64],
            dtype=np.uint64,
        )
        np.testing.assert_array_equal(_segment_key_sums(h, seg, 2), expected)


# -- queue order --------------------------------------------------------------


def queue_order_cases():
    rng = np.random.default_rng(4)
    n = 3000
    small_group = rng.integers(0, 50, size=n)
    dup_keys = rng.integers(-20, 20, size=n)  # many duplicates, negatives
    return {
        # group × key × index fits one int64: sort-the-keys path.
        "composite": (small_group, dup_keys),
        "composite-negative-groups": (small_group - 25, dup_keys * 7),
        # group × key fits, but not with the index appended: stable argsort.
        "stable-argsort": (
            small_group, rng.integers(-(1 << 44), 1 << 44, size=n)
        ),
        # group × key alone overflows: lexsort.
        "lexsort": (
            rng.integers(-(1 << 40), 1 << 40, size=n),
            rng.integers(-(1 << 40), 1 << 40, size=n),
        ),
    }


class TestQueueOrder:
    @pytest.mark.parametrize("case", sorted(queue_order_cases()))
    @pytest.mark.parametrize("with_scratch", [False, True])
    def test_matches_lexsort(self, case, with_scratch):
        group, key = queue_order_cases()[case]
        group = group.astype(np.int64)
        key = key.astype(np.int64)
        scratch = KernelScratch() if with_scratch else None
        got = queue_order(group, key, scratch)
        np.testing.assert_array_equal(got, np.lexsort((key, group)))

    def test_result_survives_scratch_reuse(self):
        """The permutation must not alias the scratch pool that the
        next call (or the caller's own gathers) overwrite."""
        group, key = queue_order_cases()["composite"]
        scratch = KernelScratch()
        first = queue_order(group, key, scratch)
        expected = first.copy()
        queue_order(group[::-1].copy(), key, scratch)
        np.testing.assert_array_equal(first, expected)

    def test_single_element(self):
        got = queue_order(np.array([5]), np.array([-3]), KernelScratch())
        assert got.tolist() == [0]

    @pytest.mark.parametrize("with_scratch", [False, True])
    def test_int32_keys_past_2_31(self, with_scratch):
        """int32 genes: ``(group − min) × key range + (key − min)`` runs
        past 2³¹ here, so any int32 step in the composite arithmetic
        would wrap.  The order must equal the int64 result."""
        rng = np.random.default_rng(5)
        n = 3000
        group = rng.integers(0, 50, size=n)
        key = rng.integers(-(2**31), 2**31, size=n)
        key[:2] = [-(2**31), 2**31 - 1]  # the full int32 key range
        scratch = KernelScratch() if with_scratch else None
        expected = queue_order(group, key)
        got = queue_order(group.astype(np.int32), key.astype(np.int32),
                          scratch)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(got, np.lexsort((key, group)))

    def test_index_and_out(self):
        """With *index* the result holds those positions in queue order,
        written to *out* when given."""
        group, key = queue_order_cases()["composite"]
        index = np.flatnonzero(np.arange(2 * group.size) % 2)
        out = np.empty(group.size, dtype=np.int64)
        got = queue_order(group, key, KernelScratch(), index=index, out=out)
        assert got is out
        np.testing.assert_array_equal(
            got, index[np.lexsort((key, group))]
        )


# -- per-queue utility/energy folds ------------------------------------------


def left_fold(values):
    total = 0.0
    for v in values:
        total = total + float(v)
    return total


def cancelling_plane(length, width, seed):
    """``(2, length, width)`` columns of 1e16/1.0/-1e16 runs, where the
    left fold keeps every 1.0 added after a -1e16 and a pairwise sum
    keeps different ones."""
    rng = np.random.default_rng(seed)
    motifs = np.array([[1e16, 1.0, -1e16, 1.0], [1.0, 1e16, 1.0, -1e16],
                       [-1e16, 1.0, 1e16, 1.0]])
    plane = np.empty((2, length, width))
    for k in range(2):
        for c in range(width):
            rows = motifs[rng.integers(0, len(motifs), size=length // 4 + 1)]
            plane[k, :, c] = rows.reshape(-1)[:length]
    return plane


class TestColumnLeftFolds:
    @pytest.mark.parametrize("length", [1, 3, 8, 40, 129, 1000])
    @pytest.mark.parametrize("width", [2, 3, 17])
    def test_matches_python_left_fold(self, length, width):
        plane = cancelling_plane(length, width, seed=length * 31 + width)
        got = _column_left_folds(plane)
        expected = np.array([[left_fold(plane[k, :, c]) for c in range(width)]
                             for k in range(2)])
        assert got.tobytes() == expected.tobytes()

    def test_inputs_are_association_sensitive(self):
        """Guard on the guard: a pairwise sum of the same column gives
        different bits, so the test above would catch a NumPy that
        summed this axis pairwise."""
        plane = cancelling_plane(1000, 2, seed=7)
        column = np.ascontiguousarray(plane[0, :, 0])
        assert np.sum(column) != left_fold(column)

    def test_single_column_rejected(self):
        with pytest.raises(ValueError):
            _column_left_folds(np.zeros((2, 5, 1)))

    def test_signed_zero_columns(self):
        plane = np.full((2, 6, 3), -0.0)
        got = _column_left_folds(plane)
        assert got.tobytes() == np.zeros((2, 3)).tobytes()


class _ConstantUtility:
    """TUF stand-in whose utilities are the given values, cycled."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def evaluate(self, task_types, elapsed, scratch=None):
        idx = np.asarray(task_types) % self.values.size
        return self.values[idx]


class TestSignedZeroUtilities:
    @pytest.mark.parametrize(
        "values", [[-0.0], [0.0, -0.0], [-0.0, 0.0, -0.0]]
    )
    def test_totals_equal_oracle_as_bytes(self, small_system, small_trace,
                                          values):
        ev = ScheduleEvaluator(
            small_system, small_trace, check_feasibility=False,
            precomputed=EvaluatorArrays.gather(
                small_system, small_trace.task_types,
                _ConstantUtility(values),
            ),
        )
        rng = np.random.default_rng(8)
        T = small_trace.num_tasks
        assignments = rng.integers(0, small_system.num_machines, size=(6, T))
        assignments[0] = 0  # one queue holds every task
        orders = np.array([rng.permutation(T) for _ in range(6)])
        for _ in range(2):  # cold, then served from the queue table
            energies, utilities = ev.evaluate_batch(assignments, orders)
            for row in range(6):
                e_ref, u_ref, _ = batch_reference_row(
                    ev, assignments[row], orders[row]
                )
                assert utilities[row:row + 1].tobytes() == \
                    np.array([u_ref]).tobytes()
                assert energies[row] == e_ref


# -- TUF evaluation -----------------------------------------------------------


_KIND_EXP = SEGMENT_KIND[DecayShape.EXPONENTIAL]
_KIND_LIN = SEGMENT_KIND[DecayShape.LINEAR]


def masked_gather_evaluate(table, task_types, elapsed):
    """The boolean-mask formulation ``TUFTable.evaluate`` replaced."""
    task_types = np.asarray(task_types, dtype=np.int64)
    t = np.maximum(np.asarray(elapsed, dtype=np.float64), 0.0)
    cols, Ke, bp_flat, sv_flat, rt_flat, kd_flat = table._fast
    seg = np.zeros(t.shape, dtype=np.int64)
    for col in cols:
        seg += np.take(col, task_types) <= t
    lin = task_types * Ke + seg
    dt = t - np.take(bp_flat, lin)
    kind = np.take(kd_flat, lin)
    v0 = np.take(sv_flat, lin)
    rate = np.take(rt_flat, lin)
    value = np.where(kind == _KIND_LIN, v0 - rate * dt, v0)
    exp_mask = kind == _KIND_EXP
    if exp_mask.any():
        value[exp_mask] = v0[exp_mask] * np.exp(
            -rate[exp_mask] * dt[exp_mask]
        )
    return np.maximum(value, np.take(table.tail_floors, task_types))


def mixed_table():
    functions = [
        TimeUtilityFunction.linear(10.0, 0.01),
        TimeUtilityFunction.exponential(4.0, 0.05),
        TimeUtilityFunction.hard_deadline(8.0, 30.0),
        TimeUtilityFunction.figure1_example(),
    ]
    catalog = default_catalog(600.0).functions
    functions += list(catalog[::max(1, len(catalog) // 8)])
    return TUFTable.from_functions(functions)


class TestTUFEvaluate:
    def test_table_mixes_every_segment_kind(self):
        kinds = set(np.unique(mixed_table().kinds).tolist())
        assert {_KIND_EXP, _KIND_LIN} <= kinds
        assert len(kinds) >= 3

    def test_matches_masked_gathers_as_bytes(self):
        table = mixed_table()
        rng = np.random.default_rng(9)
        types = np.repeat(np.arange(table.num_types), 400)
        rng.shuffle(types)
        horizon = 1.5 * float(table.end_times.max())
        elapsed = rng.uniform(-0.25 * horizon, horizon, size=types.size)
        elapsed[::7] = -elapsed[::7]  # plenty of negative elapsed times
        # Exactly at every breakpoint and end time of each element's type.
        bps = table.breakpoints[types]
        at_bp = rng.integers(0, bps.shape[1], size=types.size)
        picked = bps[np.arange(types.size), at_bp]
        finite = np.isfinite(picked)
        sel = np.flatnonzero(finite)[::3]
        elapsed[sel] = picked[sel]
        elapsed[1::5] = table.end_times[types[1::5]]
        elapsed[2::11] = 0.0
        elapsed[3::13] = -0.0
        caller = elapsed.copy()
        got = table.evaluate(types, elapsed)
        expected = masked_gather_evaluate(table, types, elapsed)
        assert got.tobytes() == expected.tobytes()
        # The caller's array is read, never written.
        assert elapsed.tobytes() == caller.tobytes()

    def test_single_kind_inputs(self):
        """Batches with no exponential segment (and with nothing but
        exponential segments) take the early-out paths."""
        table = mixed_table()
        rng = np.random.default_rng(10)
        elapsed = rng.uniform(0.0, 200.0, size=300)
        for t in range(table.num_types):
            types = np.full(300, t)
            got = table.evaluate(types, elapsed)
            assert got.tobytes() == \
                masked_gather_evaluate(table, types, elapsed).tobytes()

    def test_zero_dimensional_input(self):
        table = mixed_table()
        got = table.evaluate(np.array(1), np.array(3.5))
        assert got.shape == ()
        assert got.tobytes() == masked_gather_evaluate(
            table, np.array([1]), np.array([3.5])
        ).tobytes()
