"""Population-at-once evaluation kernel with queue-state reuse caching.

The generational hot loop evaluates a ``(N, T)`` population tensor per
step.  The ``fast``/``reference`` kernels in
:mod:`repro.sim.evaluator` recompute every machine queue of every
chromosome from scratch, and the chromosome-level cache in front of
them only helps when an *entire* row recurs (~8% after crossover).
This module reuses work at the granularity where the GA actually
repeats itself: the per-machine queue — crossover offspring keep most
parental queues intact even though almost no offspring row equals a
parent row.

Semantics
---------
Within one queue, tasks run in ascending ``(order key, task index)``
order.  With queue-local exec-time prefix sums ``cs_j`` (a sequential
left fold) the finish time of the *j*-th queued task is::

    f_j = max_{i <= j}(a_i - cs_{i-1}) + cs_j

which this kernel evaluates with one ``cumsum`` and one
``maximum.accumulate`` over a padded ``(queues, max_len)`` matrix.
Per-queue utility and energy are sequential left folds in queue order,
taken as one column reduce over a ``(2, max_len, queues)`` plane;
per-chromosome totals are left folds over ascending queue id.  Every
fold is queue-content-deterministic — a queue's numbers depend only on
its own ordered content, never on the rest of the batch — which is what
makes cached queue states exact: results are bit-identical with the
cache on, off, across checkpoint resume, and across serial/parallel
execution.  :func:`batch_reference_row` restates the same folds as
scalar Python loops and is the exactness oracle for this kernel
(``kernel_method="batch-reference"``).  Note the folds differ in the
last float bits from the ``fast``/``reference`` kernels (different but
equally valid summation associations); batch modes are pinned to *this*
oracle, not to those kernels.

Queue-state reuse
-----------------
Each queue's content is fingerprinted with a *commutative* 64-bit hash
— a wrapping mod-2⁶⁴ sum of per-element mixes, one scatter-add — so the
fingerprint needs no sort; the composite-key sort runs only over
elements of queues that miss.  The :class:`QueueStateTable` maps
fingerprints to the queue's ``(utility, energy, final finish)`` folds.

Hash collisions would silently reuse a wrong state; keys carry 64
hashed bits plus the queue id and length as a separate check word, so
two distinct contents collide with probability ~2⁻⁶⁴ per pair — across
the ~10⁶ lookup/entry pairs of a long run the chance of even one
collision is below 10⁻⁷, far under the hardware soft-error rate, and
any collision is confined to one run (fingerprints never leave the
process).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "BatchQueueKernel",
    "QueueStateTable",
    "batch_reference_row",
]

U64 = np.uint64
_MIX1 = U64(0xFF51AFD7ED558CCD)
_MIX2 = U64(0xC4CEB9FE1A85EC53)
_PHI = U64(0x9E3779B97F4A7C15)
_S32 = U64(32)

#: Fixed seed for the per-symbol hash tables: fingerprints must agree
#: across processes and resumed runs.  (They never change *results* —
#: only which computations are skipped — but determinism keeps cache
#: behaviour reproducible.)
_TABLE_SEED = 0x5EED_BA7C


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix-style finalizer over a uint64 array."""
    x = x ^ (x >> U64(33))
    x = x * _MIX1
    x = x ^ (x >> U64(29))
    x = x * _MIX2
    x = x ^ (x >> _S32)
    return x


def _odd_random_u64(n: int, stream: int) -> np.ndarray:
    """*n* odd uniform uint64 values from the fixed deterministic seed."""
    rng = np.random.Generator(np.random.PCG64(_TABLE_SEED + stream))
    vals = rng.integers(0, 2**63, size=n, dtype=np.int64).view(U64)
    return (vals << U64(1)) | U64(1)


def _segment_key_sums(h: np.ndarray, seg: np.ndarray, n_seg: int) -> np.ndarray:
    """Commutative per-segment sums of uint64 hashes, exact mod 2**64.

    uint64 addition wraps, so one unbuffered scatter-add is exact for
    any segment length.
    """
    out = np.zeros(n_seg, dtype=U64)
    np.add.at(out, seg, h)
    return out


def _column_left_folds(plane: np.ndarray) -> np.ndarray:
    """Per-column left folds from +0.0 down axis 1 of a ``(k, L, W)`` plane.

    Reducing along a non-innermost axis, NumPy adds whole rows in turn:
    ``((0.0 + p[0]) + p[1]) + …`` per column — the scalar left fold,
    never a pairwise sum.  That holds only while the column axis stays
    the inner loop: with ``W == 1`` NumPy drops the unit axis and sums
    the reduced axis pairwise, so callers pad to ``W >= 2``.
    """
    if plane.shape[2] < 2:
        raise ValueError(f"plane needs >= 2 columns; got {plane.shape[2]}")
    return np.add.reduce(plane, axis=1, initial=0.0)


class _OpenAddressTable:
    """Vectorized open-addressing hash table over parallel numpy arrays.

    Keys are ``(key, check)`` uint64 pairs; values live in *n_values*
    parallel float64 columns.  The table clears itself when the entry
    count would exceed half the slots (bounded memory, short probe
    chains); inserts that cannot find a slot within the probe cap are
    dropped — the cache is lossy by contract, which never changes
    results, only how much work is skipped.
    """

    #: Linear-probe rounds before a lookup/insert gives up.
    MAX_PROBES = 32

    def __init__(self, n_slots_log2: int, n_values: int) -> None:
        if not (4 <= n_slots_log2 <= 28):
            raise ValueError(
                f"n_slots_log2 must be in [4, 28]; got {n_slots_log2}"
            )
        n = 1 << n_slots_log2
        self.n_slots = n
        self.mask = np.int64(n - 1)
        self.shift = U64(64 - n_slots_log2)
        # Only the occupancy bitmap needs zero-init: every read of
        # keys/checks/values is masked through ``used``, so those
        # arrays can stay uninitialized (np.empty maps lazily — this
        # keeps table construction O(slots/page) instead of paying a
        # ~36MB memset per kernel).
        self.keys = np.empty(n, dtype=U64)
        self.checks = np.empty(n, dtype=U64)
        self.used = np.zeros(n, dtype=bool)
        self.values = [np.empty(n, dtype=np.float64) for _ in range(n_values)]
        self.capacity = n // 2
        self.entries = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def clear(self) -> None:
        """Drop every entry (counters keep their lifetime totals)."""
        self.used[:] = False
        self.entries = 0

    def _home(self, keys: np.ndarray) -> np.ndarray:
        # Fibonacci hashing spreads the (already mixed) keys over slots.
        return ((keys * _PHI) >> self.shift).astype(np.int64)

    def lookup(
        self, keys: np.ndarray, checks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(found, slot)`` per probe key; slot is -1 where not found."""
        n = keys.shape[0]
        found = np.zeros(n, dtype=bool)
        slots = np.full(n, -1, dtype=np.int64)
        if n == 0 or self.entries == 0:
            return found, slots
        pend = np.arange(n)
        home = self._home(keys)
        for r in range(self.MAX_PROBES):
            s = (home + np.int64(r)) & self.mask
            used = self.used[s]
            match = (
                used
                & (self.keys[s] == keys[pend])
                & (self.checks[s] == checks[pend])
            )
            if match.any():
                found[pend[match]] = True
                slots[pend[match]] = s[match]
            cont = used & ~match
            if not cont.any():
                break
            pend = pend[cont]
            home = home[cont]
        return found, slots

    def insert(self, keys: np.ndarray, checks: np.ndarray, *cols) -> None:
        """Insert key → value rows (existing keys are overwritten)."""
        n = keys.shape[0]
        if n == 0:
            return
        if self.entries + n > self.capacity:
            self.clear()
            self.evictions += 1
        pend = np.arange(n)
        home = self._home(keys)
        for r in range(self.MAX_PROBES):
            if pend.size == 0:
                break
            s = (home + np.int64(r)) & self.mask
            free = ~self.used[s]
            if free.any():
                # Several keys may target one free slot in the same
                # round; fancy assignment applies writes in index
                # order, so the last contender wins every parallel
                # array consistently — the losers just probe on, and a
                # key whose twin already landed (same content in two
                # rows) exits via the post-write match below.
                w = pend[free]
                ws = s[free]
                self.keys[ws] = keys[w]
                self.checks[ws] = checks[w]
                for col, vals in zip(self.values, cols):
                    col[ws] = vals[w]
                self.used[ws] = True
                # Upper bound (duplicate targets counted once each):
                # only drives the load-factor clear, never correctness.
                self.entries += int(np.count_nonzero(free))
            match = (
                self.used[s]
                & (self.keys[s] == keys[pend])
                & (self.checks[s] == checks[pend])
            )
            keep = ~match
            if not keep.any():
                break
            pend = pend[keep]
            home = home[keep]


class QueueStateTable(_OpenAddressTable):
    """Full-queue states: content key → (utility, energy, final finish)."""

    def __init__(self, n_slots_log2: int = 18) -> None:
        super().__init__(n_slots_log2, n_values=3)

    @property
    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": self.entries,
            "evictions": self.evictions,
            "hit_rate": self.hits / total if total else 0.0,
        }


class BatchQueueKernel:
    """Population-at-once evaluation with queue-state reuse.

    Bound to one evaluator's precomputed arrays (duck-typed: needs
    ``_etc_flat``, ``_eec_flat``, ``_arrivals``, ``_task_types``,
    ``_tuf_table``, ``_queue_groups``, ``_num_queues``,
    ``num_machines``, ``num_tasks``).  The arrays are bound at
    construction and the evaluator itself is not kept: an evaluator
    owns its kernel, so a back-reference would put every evaluator in
    a reference cycle and keep it (with its scratch pools) alive until
    a cyclic garbage collection happens to run.

    Parameters
    ----------
    use_cache:
        ``False`` disables queue-state reuse (the ``cache_size=0``
        configuration): every queue is recomputed each call.  Results
        are bit-identical either way.
    queue_slots_log2:
        log₂ table size; the table clears itself at half load.
    """

    def __init__(
        self,
        ev,
        use_cache: bool = True,
        queue_slots_log2: int = 18,
    ) -> None:
        self._etc_flat = ev._etc_flat
        self._eec_flat = ev._eec_flat
        self._arrivals = ev._arrivals
        self._task_types = ev._task_types
        self._tuf_table = ev._tuf_table
        self.use_cache = bool(use_cache)
        self.M = int(ev.num_machines)
        self.T = int(ev.num_tasks)
        self.Mq = int(ev._num_queues)
        self.qg = np.ascontiguousarray(ev._queue_groups, dtype=np.int64)
        self._queue_slots_log2 = queue_slots_log2
        self._queue_table: Optional[QueueStateTable] = None
        # Per-symbol hash tables: symbol = task_index * M + machine
        # (machines sharing a DVFS queue still hash apart — their ETC
        # columns differ); order keys go through a second table when
        # they fit it, and an arithmetic mix otherwise.
        self._r_sym = _odd_random_u64(self.T * self.M, stream=1)
        self._ord_cap = max(1024, 4 * self.T)
        self._r_ord = _odd_random_u64(self._ord_cap, stream=2)
        # Grow-only scratch, keyed by element capacity.
        self._cap = 0
        self._rows_mq: Optional[np.ndarray] = None
        self._cols_m: Optional[np.ndarray] = None
        self._qids: Optional[np.ndarray] = None
        self._u64 = [np.empty(0, dtype=U64) for _ in range(2)]
        self._i64 = [np.empty(0, dtype=np.int64) for _ in range(2)]
        self._sort_scratch = None
        # Grow-only flat pool for the padded fold planes — fresh
        # MB-scale allocations would pay first-touch page faults every
        # call (see _KernelScratch in the evaluator).
        self._pad = np.empty(0)
        # Reuse statistics (lifetime + last batch).
        self.last_batch: dict = {}
        self.elements_total = 0
        self.elements_reused = 0

    @property
    def queue_table(self) -> QueueStateTable:
        """The queue-state table, built on first use (an evaluator that
        never runs a batch allocates none)."""
        if self._queue_table is None:
            self._queue_table = QueueStateTable(self._queue_slots_log2)
        return self._queue_table

    # -- scratch -----------------------------------------------------------

    def _ensure(self, N: int) -> None:
        n = N * self.T
        if n <= self._cap:
            return
        self._cap = n
        self._rows_mq = np.repeat(np.arange(N, dtype=np.int64) * self.Mq,
                                  self.T)
        self._cols_m = np.tile(np.arange(self.T, dtype=np.int64) * self.M, N)
        self._qids = np.tile(np.arange(self.Mq, dtype=np.int64), N)
        self._u64 = [np.empty(n, dtype=U64) for _ in range(2)]
        self._i64 = [np.empty(n, dtype=np.int64) for _ in range(2)]

    # -- hashing -----------------------------------------------------------

    def _element_hashes(
        self, sym: np.ndarray, flat_order: np.ndarray, n: int
    ) -> np.ndarray:
        """Joint (symbol, order-key) 64-bit mixes, one per element."""
        out = self._u64[0][:n]
        np.take(self._r_sym, sym, out=out)
        omin = int(flat_order.min())
        omax = int(flat_order.max())
        if 0 <= omin and omax < self._ord_cap:
            ho = np.take(self._r_ord, flat_order, out=self._u64[1][:n])
            np.multiply(out, ho, out=out)
        else:
            # Arbitrary int64 order keys: full arithmetic mix, forced
            # odd so the product never degenerates to even-only values.
            ho = _mix64(flat_order.view(U64) * _PHI + U64(1))
            np.multiply(out, (ho << U64(1)) | U64(1), out=out)
        return out

    # -- public API --------------------------------------------------------

    def evaluate_population(
        self, assignments: np.ndarray, orders: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(energies, utilities)`` for an already-validated batch."""
        e, u, _ = self._evaluate(assignments, orders, want_finish=False)
        return e, u

    def evaluate_population_with_finish(
        self, assignments: np.ndarray, orders: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """As above plus per-row makespan (max over queue final finishes;
        ``max`` is rounding-free, so makespans are as exact as the queue
        states themselves)."""
        return self._evaluate(assignments, orders, want_finish=True)

    @property
    def stats(self) -> dict:
        """Queue-reuse counters: table stats + element-level reuse."""
        s = self.queue_table.stats
        s["elements_total"] = self.elements_total
        s["elements_reused"] = self.elements_reused
        s["reuse_rate"] = (
            self.elements_reused / self.elements_total
            if self.elements_total else 0.0
        )
        return s

    def clear(self) -> None:
        """Drop all cached queue states."""
        self.queue_table.clear()

    # -- core --------------------------------------------------------------

    def _evaluate(
        self, assignments: np.ndarray, orders: np.ndarray, want_finish: bool
    ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        N, T = assignments.shape
        Mq = self.Mq
        n = N * T
        n_seg = N * Mq
        self._ensure(N)
        flat_m = assignments.reshape(-1)
        flat_o = orders.reshape(-1)
        # seg id = row * Mq + queue(machine); symbol = task * M + machine
        q = np.take(self.qg, flat_m, out=self._i64[0][:n])
        seg = np.add(q, self._rows_mq[:n], out=self._i64[0][:n])
        sym = np.add(self._cols_m[:n], flat_m, out=self._i64[1][:n])

        h = self._element_hashes(sym, flat_o, n)
        k = _segment_key_sums(h, seg, n_seg)
        lens = np.bincount(seg, minlength=n_seg)
        # The check word carries structure the sum-hash does not.
        check = (
            (lens.astype(np.int64) << np.int64(20)) | self._qids[:n_seg]
        ).view(U64)
        nonempty = lens > 0

        uq = np.zeros(n_seg, dtype=np.float64)
        eq = np.zeros(n_seg, dtype=np.float64)
        fq = np.full(n_seg, -np.inf) if want_finish else None

        found = np.zeros(n_seg, dtype=bool)
        if self.use_cache:
            # Probe only nonempty segments: empty ones can never match
            # (entries always carry length > 0) and their all-zero keys
            # would pile onto one probe chain.
            ne_ids = np.flatnonzero(nonempty)
            if ne_ids.size == n_seg:
                f_ne, s_ne = self.queue_table.lookup(k, check)
                ne_ids = None
            else:
                f_ne, s_ne = self.queue_table.lookup(k[ne_ids], check[ne_ids])
            if f_ne.any():
                hs = s_ne[f_ne]
                hit_ids = f_ne if ne_ids is None else ne_ids[f_ne]
                found[hit_ids] = True
                uq[hit_ids] = self.queue_table.values[0][hs]
                eq[hit_ids] = self.queue_table.values[1][hs]
                if want_finish:
                    fq[hit_ids] = self.queue_table.values[2][hs]
        n_hits = int(np.count_nonzero(found))
        miss_seg = nonempty & ~found
        n_miss = int(np.count_nonzero(miss_seg))
        hit_elems = int(lens[found].sum()) if n_hits else 0
        self.queue_table.hits += n_hits
        self.queue_table.misses += n_miss

        if n_miss:
            self._compute_misses(
                miss_seg, seg, sym, flat_o, lens, k, check, uq, eq, fq
            )

        self.elements_total += n
        self.elements_reused += hit_elems
        self.last_batch = {
            "rows": N,
            "elements": n,
            "queues": int(np.count_nonzero(nonempty)),
            "queue_hits": n_hits,
            "queue_misses": n_miss,
            "elements_reused": hit_elems,
            "reuse_rate": hit_elems / n if n else 0.0,
        }

        # Per-row totals: left fold over ascending queue id (empty
        # queues contribute +0.0, which is exact).
        utilities = np.cumsum(uq.reshape(N, Mq), axis=1)[:, -1]
        energies = np.cumsum(eq.reshape(N, Mq), axis=1)[:, -1]
        finish = fq.reshape(N, Mq).max(axis=1) if want_finish else None
        return energies, utilities, finish

    # -- miss path ---------------------------------------------------------

    def _compute_misses(
        self, miss_seg, seg, sym, flat_o, lens, k, check, uq, eq, fq
    ) -> None:
        """Sort and fold every missed queue.

        Fills ``uq``/``eq`` (and ``fq``) at missed segments and inserts
        the new states.
        """
        from repro.sim.evaluator import _KernelScratch, _queue_order

        idx = np.flatnonzero(miss_seg[seg])
        ns = idx.size
        sseg = seg[idx]
        if self._sort_scratch is None:
            self._sort_scratch = _KernelScratch()
        perm = _queue_order(sseg, flat_o[idx], self._sort_scratch)
        sidx = idx[perm]
        sseg = sseg[perm]

        miss_ids = np.flatnonzero(miss_seg)
        nsm = miss_ids.size
        lens_m = lens[miss_ids]
        remap = np.empty(int(miss_ids[-1]) + 1, dtype=np.int64)
        remap[miss_ids] = np.arange(nsm)
        segc = remap[sseg]
        starts = np.zeros(nsm, dtype=np.int64)
        np.cumsum(lens_m[:-1], out=starts[1:])
        pos = np.arange(ns, dtype=np.int64) - starts[segc]

        stask = sidx % self.T
        lin = sym[sidx]  # task * M + machine: the flat ETC/EEC index
        arr = self._arrivals[stask]

        # One pool backs both stages: the (nsm, Lmax) finish-time planes
        # are dead before the (2, Lmax, W) utility/energy plane is
        # written.  W >= 2 keeps the column reduce a left fold.
        Lmax = int(lens_m.max())
        W = max(nsm, 2)
        if 2 * Lmax * W > self._pad.size:
            self._pad = np.empty(max(2 * Lmax * W, 2 * self._pad.size))
        pool = self._pad[:2 * Lmax * W]

        # Finish times need every prefix: row-wise cumsum and running
        # max (ufunc.accumulate reads each input element before writing
        # its output slot, so both run in place).  Padding (arrival
        # -inf, exec 0.0) leaves the last column equal to each queue's
        # final finish.
        cells = nsm * Lmax
        A_pad = pool[:cells].reshape(nsm, Lmax)
        E_pad = pool[cells:2 * cells].reshape(nsm, Lmax)
        A_pad.fill(-np.inf)
        E_pad.fill(0.0)
        flat_ix = segc * np.int64(Lmax) + pos
        A_pad.reshape(-1)[flat_ix] = arr
        E_pad.reshape(-1)[flat_ix] = self._etc_flat[lin]
        cs = np.cumsum(E_pad, axis=1, out=E_pad)
        # key_j = a_j - cs_{j-1}, with cs_{-1} = 0 (a - 0.0 == a).
        np.subtract(A_pad[:, 1:], cs[:, :-1], out=A_pad[:, 1:])
        runmax = np.maximum.accumulate(A_pad, axis=1, out=A_pad)
        F = np.add(runmax, cs, out=A_pad)
        elapsed = F.reshape(-1)[flat_ix]
        elapsed -= arr
        f_new = F[:, -1].copy()

        u_elem = self._tuf_table.evaluate(self._task_types[stask], elapsed)
        plane = pool.reshape(2, Lmax, W)
        plane.fill(0.0)
        col_ix = pos * np.int64(W) + segc
        plane[0].reshape(-1)[col_ix] = u_elem
        plane[1].reshape(-1)[col_ix] = self._eec_flat[lin]
        totals = _column_left_folds(plane)
        u_new = totals[0, :nsm]
        e_new = totals[1, :nsm]

        uq[miss_ids] = u_new
        eq[miss_ids] = e_new
        if fq is not None:
            fq[miss_ids] = f_new

        if self.use_cache:
            self.queue_table.insert(
                k[miss_ids], check[miss_ids], u_new, e_new, f_new
            )


def batch_reference_row(
    ev, assignment: np.ndarray, order: np.ndarray
) -> tuple[float, float, np.ndarray]:
    """Scalar oracle for the batch kernel's exact fold semantics.

    Returns ``(energy, utility, per-task finish times)`` for one
    chromosome, computing every queue with plain Python left folds.
    The TUF table is evaluated through the same vectorized
    :meth:`~repro.utility.vectorized.TUFTable.evaluate` — it is
    elementwise, so composition cannot change its values — keeping the
    oracle honest about the recurrence while staying usable in tests.
    """
    T = ev.num_tasks
    qg = ev._queue_groups
    queues: dict[int, list[tuple[int, int]]] = {}
    for t in range(T):
        queues.setdefault(int(qg[assignment[t]]), []).append(
            (int(order[t]), t)
        )
    finish = np.empty(T, dtype=np.float64)
    for items in queues.values():
        items.sort()
        cs = 0.0
        rm = -np.inf
        for o, t in items:
            m = int(assignment[t])
            e = float(ev._etc_flat[t * ev.num_machines + m])
            a = float(ev._arrivals[t])
            cs_prev = cs
            cs = cs + e
            key = a - cs_prev
            rm = max(rm, key)
            finish[t] = rm + cs
    elapsed = finish - ev._arrivals
    task_u = ev._tuf_table.evaluate(ev._task_types, elapsed)
    utility = 0.0
    energy = 0.0
    for qid in range(ev._num_queues):
        items = queues.get(qid)
        if not items:
            continue
        u_q = 0.0
        e_q = 0.0
        for o, t in items:
            m = int(assignment[t])
            u_q = u_q + float(task_u[t])
            e_q = e_q + float(ev._eec_flat[t * ev.num_machines + m])
        utility = utility + u_q
        energy = energy + e_q
    return energy, utility, finish
