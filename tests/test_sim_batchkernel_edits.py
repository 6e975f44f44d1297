"""Queue fingerprints built as edits of a base row.

A batch row evaluated with a base parent
(:meth:`~repro.sim.evaluator.ScheduleEvaluator.evaluate_rows`) starts
from its base row's queue keys and lengths and hashes only the genes in
which the two differ.  Every case here checks the edited fingerprints
against a fresh kernel's from-scratch ones, and that the objectives and
the hit/miss counters do not depend on the base.  The batches here are
small, so the kernel's size floor for editing is lowered to zero.
"""

from typing import NamedTuple, Optional

import numpy as np
import pytest

from repro.core.operators import FeasibleMachines
from repro.errors import ScheduleError
from repro.sim import batchkernel
from repro.sim.batchkernel import EDIT_MIN_ELEMENTS, EDIT_SHARE, RowBase
from repro.sim.evaluator import ScheduleEvaluator

P = 12
N = 16


class Rows(NamedTuple):
    """Evaluated parent rows, as ``evaluate_rows`` reads them."""

    assignments: np.ndarray
    orders: np.ndarray
    fingerprints: Optional[np.ndarray]


@pytest.fixture(autouse=True)
def edit_any_size(monkeypatch):
    monkeypatch.setattr(batchkernel, "EDIT_MIN_ELEMENTS", 0)


def evaluator(system, trace, **kwargs):
    return ScheduleEvaluator(system, trace, check_feasibility=False,
                             **kwargs)


def random_rows(feasible, T, n, rng, dtype=np.int64):
    assignments = feasible.sample_matrix(n, rng).astype(dtype)
    orders = np.array([rng.permutation(T) for _ in range(n)], dtype=dtype)
    return assignments, orders


def edited_children(parents, feasible, rng, identical=(), span=0.1,
                    bases=None):
    """Children copied from random parents, then edited the way
    variation edits them: a range of up to *span* of the genes taken
    from another parent, machine redraws (crossing queues) and
    order-key swaps.  Rows listed in *identical* stay exact copies of
    their base."""
    pa, po = parents
    T = pa.shape[1]
    if bases is None:
        bases = rng.integers(0, pa.shape[0], size=N)
    ca, co = pa[bases].copy(), po[bases].copy()
    for i in range(N):
        if i in identical:
            continue
        donor = int(rng.integers(0, pa.shape[0]))
        lo = int(rng.integers(0, T))
        hi = lo + int(rng.integers(0, int(span * T) + 1))
        ca[i, lo:hi] = pa[donor, lo:hi]
        co[i, lo:hi] = po[donor, lo:hi]
        for _ in range(int(rng.integers(0, 4))):
            g, h = rng.integers(0, T, size=2)
            ca[i, g] = feasible.sample(np.array([g]), rng)[0]
            co[i, g], co[i, h] = co[i, h], co[i, g]
    return ca, co, bases


def fingerprinted(ev, assignments, orders, parents=None, bases=None):
    return ev.evaluate_rows(assignments, orders, parents, bases)


def assert_edits_match_scratch(system, trace, parents, children, bases,
                               parent_fp=None, clear=False, **kwargs):
    """Evaluate *children* as edits of *parents* on one evaluator and in
    full on another with the same history; everything must agree."""
    edited = evaluator(system, trace, **kwargs)
    scratch = evaluator(system, trace, **kwargs)
    _, _, fp = fingerprinted(edited, *parents)
    fingerprinted(scratch, *parents)
    if parent_fp is not None:
        fp = parent_fp(fp)
    if clear:
        edited.clear_cache()
        scratch.clear_cache()
    ca, co = children
    e1, u1, fp1 = fingerprinted(
        edited, ca, co, Rows(parents[0], parents[1], fp), bases)
    e0, u0, fp0 = fingerprinted(scratch, ca, co)
    np.testing.assert_array_equal(fp1, fp0)
    np.testing.assert_array_equal(e1, e0)
    np.testing.assert_array_equal(u1, u0)
    for key in ("hits", "misses", "elements_total", "elements_reused"):
        assert edited.cache_stats[key] == scratch.cache_stats[key], key
    return edited, scratch


@pytest.fixture
def setting(small_system, small_trace):
    feasible = FeasibleMachines.from_system_trace(small_system, small_trace)
    return small_system, small_trace, feasible


class TestEditsMatchScratch:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_random_batches(self, setting, seed, dtype):
        system, trace, feasible = setting
        rng = np.random.default_rng(seed)
        parents = random_rows(feasible, trace.num_tasks, P, rng, dtype)
        ca, co, bases = edited_children(parents, feasible, rng)
        edited, scratch = assert_edits_match_scratch(
            system, trace, parents, (ca, co), bases)
        diff = int(np.count_nonzero((ca != parents[0][bases])
                                    | (co != parents[1][bases])))
        assert edited._batch_kernel.last_batch["elements_hashed"] == 2 * diff
        assert (scratch._batch_kernel.last_batch["elements_hashed"]
                == N * trace.num_tasks)

    def test_dvfs_queue_groups(self, setting):
        system, trace, feasible = setting
        groups = np.arange(system.num_machines) // 2
        rng = np.random.default_rng(11)
        parents = random_rows(feasible, trace.num_tasks, P, rng)
        ca, co, bases = edited_children(parents, feasible, rng)
        assert_edits_match_scratch(
            system, trace, parents, (ca, co), bases, queue_groups=groups)

    @pytest.mark.parametrize("far_parents", [True, False])
    def test_order_keys_beyond_the_table(self, setting, far_parents):
        system, trace, feasible = setting
        rng = np.random.default_rng(12)
        pa, po = random_rows(feasible, trace.num_tasks, P, rng)
        if far_parents:
            # Parents mix in-table keys with keys past the order table
            # and negative ones (the arithmetic mix).
            po[: P // 2] = po[: P // 2] * 1_000_003 - 7 * trace.num_tasks
        ca, co, bases = edited_children((pa, po), feasible, rng)
        # One child takes keys past the table: its batch mixes both
        # kinds even when every parent key was in the table.
        co[0, :5] = np.arange(5) + 2**40
        assert_edits_match_scratch(system, trace, (pa, po), (ca, co), bases)

    def test_children_identical_to_their_base(self, setting):
        system, trace, feasible = setting
        rng = np.random.default_rng(13)
        parents = random_rows(feasible, trace.num_tasks, P, rng)
        same = {0, 3, 7}
        ca, co, bases = edited_children(parents, feasible, rng, same)
        edited, _ = assert_edits_match_scratch(
            system, trace, parents, (ca, co), bases)
        # An exact copy hashes nothing and hits every queue.
        ca, co, bases = edited_children(parents, feasible, rng, range(N))
        before = edited.cache_stats
        _, _, fp = fingerprinted(edited, *parents)
        fingerprinted(edited, ca, co, Rows(parents[0], parents[1], fp),
                      bases)
        batch = edited._batch_kernel.last_batch
        assert batch["elements_hashed"] == 0
        assert edited.cache_stats["misses"] == before["misses"]

    def test_rows_with_and_without_base_state(self, setting):
        system, trace, feasible = setting
        T = trace.num_tasks
        rng = np.random.default_rng(14)
        parents = random_rows(feasible, T, P, rng)
        # One child has a base without fingerprints; the batch stays
        # under the edit share.
        bases = np.r_[0, rng.integers(1, P, size=N - 1)]
        ca, co, bases = edited_children(parents, feasible, rng, span=0.02,
                                        bases=bases)
        stateless = np.arange(P) == 0

        def drop_some(fp):
            fp = fp.copy()
            fp[stateless] = 0
            return fp

        edited, _ = assert_edits_match_scratch(
            system, trace, parents, (ca, co), bases, parent_fp=drop_some)
        diff = (ca != parents[0][bases]) | (co != parents[1][bases])
        full = stateless[bases]
        expected = (2 * int(np.count_nonzero(diff[~full]))
                    + T * int(np.count_nonzero(full)))
        assert edited._batch_kernel.last_batch["elements_hashed"] == expected
        # No fingerprints at all: every row is hashed in full.
        edited, _ = assert_edits_match_scratch(
            system, trace, parents, (ca, co), bases,
            parent_fp=lambda fp: None)
        assert edited._batch_kernel.last_batch["elements_hashed"] == N * T

    def test_batches_past_the_edit_share_hash_in_full(self, setting):
        system, trace, feasible = setting
        rng = np.random.default_rng(19)
        parents = random_rows(feasible, trace.num_tasks, P, rng)
        ca, co, bases = edited_children(parents, feasible, rng, span=1.0)
        diff = (ca != parents[0][bases]) | (co != parents[1][bases])
        assert np.count_nonzero(diff) > EDIT_SHARE * diff.size
        edited, _ = assert_edits_match_scratch(
            system, trace, parents, (ca, co), bases)
        assert (edited._batch_kernel.last_batch["elements_hashed"]
                == diff.size)

    def test_table_cleared_between_batches(self, setting):
        system, trace, feasible = setting
        rng = np.random.default_rng(15)
        parents = random_rows(feasible, trace.num_tasks, P, rng)
        ca, co, bases = edited_children(parents, feasible, rng)
        edited, _ = assert_edits_match_scratch(
            system, trace, parents, (ca, co), bases, clear=True)
        assert edited.cache_stats["hits"] == 0

    def test_fingerprints_chain_across_generations(self, setting):
        """Children's fingerprints serve as the next batch's base."""
        system, trace, feasible = setting
        rng = np.random.default_rng(16)
        edited = evaluator(system, trace)
        scratch = evaluator(system, trace)
        pa, po = random_rows(feasible, trace.num_tasks, N, rng)
        _, _, fp = fingerprinted(edited, pa, po)
        for _ in range(4):
            ca, co, bases = edited_children((pa, po), feasible, rng)
            e1, u1, fp1 = fingerprinted(edited, ca, co, Rows(pa, po, fp),
                                        bases)
            e0, u0, fp0 = fingerprinted(scratch, ca, co)
            np.testing.assert_array_equal(fp1, fp0)
            np.testing.assert_array_equal(e1, e0)
            np.testing.assert_array_equal(u1, u0)
            pa, po, fp = ca, co, fp1


class TestBaseValidation:
    def test_bad_bases_are_refused(self, setting):
        system, trace, feasible = setting
        rng = np.random.default_rng(17)
        pa, po = random_rows(feasible, trace.num_tasks, P, rng)
        ev = evaluator(system, trace)
        _, _, fp = fingerprinted(ev, pa, po)
        ca, co, bases = edited_children((pa, po), feasible, rng)
        bad = [
            RowBase(pa, po, fp, bases[:-1]),
            RowBase(pa, po, fp, bases + P),
            RowBase(pa, po, fp, bases.astype(np.int32)),
            RowBase(pa.astype(np.int32), po, fp, bases),
            RowBase(pa[:, :-1], po[:, :-1], fp, bases),
            RowBase(pa, po, fp[:, :-1], bases),
            RowBase(pa, po, fp.astype(np.int64), bases),
        ]
        for base in bad:
            with pytest.raises(ScheduleError):
                ev.evaluate_batch(ca, co, base=base)

    def test_cache_off_writes_no_fingerprints(self, setting):
        system, trace, feasible = setting
        rng = np.random.default_rng(18)
        pa, po = random_rows(feasible, trace.num_tasks, P, rng)
        ev = evaluator(system, trace, cache_size=0)
        e1, u1, fp = fingerprinted(ev, pa, po)
        assert fp is None
        ca, co, bases = edited_children((pa, po), feasible, rng)
        e1, u1, fp = fingerprinted(ev, ca, co, Rows(pa, po, None), bases)
        assert fp is None
        e0, u0 = evaluator(system, trace).evaluate_batch(ca, co)
        np.testing.assert_array_equal(e1, e0)
        np.testing.assert_array_equal(u1, u0)
        assert ev.cache_stats["elements_hashed"] == 0


def test_batches_under_the_size_floor_hash_in_full(small_system,
                                                   small_trace,
                                                   monkeypatch):
    """A batch of fewer than ``EDIT_MIN_ELEMENTS`` elements is hashed in
    full and keeps no fingerprints; at the floor (parents included) it
    is edited."""
    feasible = FeasibleMachines.from_system_trace(small_system, small_trace)
    T = small_trace.num_tasks
    assert EDIT_MIN_ELEMENTS > N * T
    rng = np.random.default_rng(20)
    parents = random_rows(feasible, T, P, rng)
    ca, co, bases = edited_children(parents, feasible, rng)
    diff = int(np.count_nonzero((ca != parents[0][bases])
                                | (co != parents[1][bases])))
    for floor, hashed in ((N * T + 1, N * T), (P * T, 2 * diff)):
        monkeypatch.setattr(batchkernel, "EDIT_MIN_ELEMENTS", floor)
        edited, _ = assert_edits_match_scratch(
            small_system, small_trace, parents, (ca, co), bases)
        assert edited._batch_kernel.last_batch["elements_hashed"] == hashed
        kept = edited.evaluate_rows(ca, co)[2]
        assert (kept is None) == (floor > N * T)


def test_warm_generation_hashes_only_changed_genes(monkeypatch):
    """At Figure 6's scale (population 40, 4000 tasks, 30 machines) a
    warm NSGA-II generation hashes two mixes per gene a child changed
    against its base parent, plus every gene of a child whose base has
    no fingerprints; a generation whose children changed more than the
    edit share of their genes hashes every gene once.  The batches are
    far above the kernel's size floor."""
    from repro.core.algorithm import AlgorithmConfig
    from repro.core.nsga2 import NSGA2
    from repro.core.population import Population
    from repro.experiments.datasets import dataset3

    monkeypatch.undo()  # the real size floor
    ds3 = dataset3(2013)
    ev = evaluator(ds3.system, ds3.trace)
    T = ds3.trace.num_tasks
    assert 40 * T >= batchkernel.EDIT_MIN_ELEMENTS
    evaluate = Population.evaluate
    counts = []

    def recorded(self, evaluator, parents=None, bases=None):
        evaluate(self, evaluator, parents, bases)
        if bases is None:  # the initial population
            return
        diff = ((self.assignments != parents.assignments[bases])
                | (self.orders != parents.orders[bases]))
        stateless = ~parents.fingerprints[bases].any(axis=1)
        changed = int(np.count_nonzero(diff[~stateless]))
        full = T * int(np.count_nonzero(stateless))
        counts.append((evaluator._batch_kernel.last_batch["elements_hashed"],
                       changed, full, diff.size))

    monkeypatch.setattr(Population, "evaluate", recorded)
    ga = NSGA2(ev, AlgorithmConfig(population_size=40), rng=3)
    for _ in range(30):
        ga.step()
    for hashed, changed, full, elements in counts:
        if changed + full <= EDIT_SHARE * elements:
            assert hashed == 2 * changed + full
        else:
            assert hashed == elements
    # Warm by the end: the last generations hash edits only.
    for hashed, changed, full, elements in counts[-5:]:
        assert hashed <= 2 * changed + full < elements
