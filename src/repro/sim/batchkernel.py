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
Per-queue utility and energy are sequential left folds in queue order;
per-chromosome totals are left folds over ascending queue id.  Every
fold is queue-content-deterministic — a queue's numbers depend only on
its own ordered content, never on the rest of the batch — which is what
makes cached continuation exact: results are bit-identical with the
cache on, off, across checkpoint resume, and across serial/parallel
execution.  :func:`batch_reference_row` restates the same folds as
scalar Python loops and is the exactness oracle for this kernel
(``kernel_method="batch-reference"``).  Note the folds differ in the
last float bits from the ``fast``/``reference`` kernels (different but
equally valid summation associations); batch modes are pinned to *this*
oracle, not to those kernels.

Reuse tiers
-----------
1. **Full-queue states.**  Each queue's content is fingerprinted with a
   *commutative* 64-bit hash (a mod-2⁶⁴ sum of per-element mixes), so
   the fingerprint needs no sort — the composite-key sort runs only
   over elements of queues that miss.  The :class:`QueueStateTable`
   maps fingerprints to the queue's ``(utility, energy, final
   finish)`` folds.
2. **Prefix resume** (optional, default off — see
   :data:`PREFIX_ANCHOR_STRIDE`).  Elements of missed queues are
   sorted into queue order and rolling positional hashes are probed at
   anchor positions (every *prefix_stride*-th element); the longest
   cached prefix seeds
   the left folds (``cs`` / running max / utility / energy) so only
   the suffix is recomputed.  Seeding preserves the exact sequential
   fold, so partial reuse is also bit-identical.

Hash collisions would silently reuse a wrong state; keys carry 64
hashed bits plus the queue id and (prefix) length as a separate check
word, so two distinct contents collide with probability ~2⁻⁶⁴ per
pair — across the ~10⁶ lookup/entry pairs of a long run the chance of
even one collision is below 10⁻⁷, far under the hardware soft-error
rate, and any collision is confined to one run (fingerprints never
leave the process).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "BatchQueueKernel",
    "QueueStateTable",
    "PrefixStateTable",
    "batch_reference_row",
    "PREFIX_ANCHOR_STRIDE",
]

U64 = np.uint64
_MIX1 = U64(0xFF51AFD7ED558CCD)
_MIX2 = U64(0xC4CEB9FE1A85EC53)
_PHI = U64(0x9E3779B97F4A7C15)
_S32 = U64(32)
_LO32 = U64(0xFFFFFFFF)

#: Anchor spacing used when the prefix-resume tier is enabled.  Denser
#: anchors raise partial reuse but cost more probes and inserts.  The
#: tier itself defaults to *off* (``prefix_stride=0``): on all bundled
#: datasets its anchor-table traffic costs more wall-clock than the
#: fold work it skips (fig. 3 scale: ~2.8 vs ~2.5 ms/generation;
#: dataset3: ~120 vs ~87 ms/step) even though it raises element-level
#: reuse by ~5-13 points.  It pays off only when per-element fold work
#: dwarfs a hash-table probe — e.g. much longer queues or a costlier
#: utility model — so the capability stays, measured and switchable.
PREFIX_ANCHOR_STRIDE = 8

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

    ``bincount`` only takes float64 weights, so the sum runs over the
    32-bit halves separately: each half-sum stays below 2**53 for any
    segment shorter than ~2**20 elements, hence exact, and the halves
    recombine with wrapping uint64 arithmetic.
    """
    lo = (h & _LO32).astype(np.float64)
    hi = (h >> _S32).astype(np.float64)
    slo = np.bincount(seg, weights=lo, minlength=n_seg)
    shi = np.bincount(seg, weights=hi, minlength=n_seg)
    return slo.astype(U64) + (shi.astype(U64) << _S32)


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
        # ~36MB memset per kernel, which dominated evaluator
        # construction cost in the online service's per-window loop).
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


class PrefixStateTable(_OpenAddressTable):
    """Queue-prefix states: positional key → (runmax, cs, u_cum, e_cum)."""

    def __init__(self, n_slots_log2: int = 19) -> None:
        super().__init__(n_slots_log2, n_values=4)


class BatchQueueKernel:
    """Population-at-once evaluation with two-tier queue-state reuse.

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
        ``False`` disables both reuse tiers (the ``cache_size=0``
        configuration): every queue is recomputed each call.  Results
        are bit-identical either way.
    queue_slots_log2 / prefix_slots_log2:
        log₂ table sizes; each table clears itself at half load.
    prefix_stride:
        Anchor spacing for the prefix-resume tier; ``0`` disables it
        (the full-queue tier still applies).
    """

    def __init__(
        self,
        ev,
        use_cache: bool = True,
        queue_slots_log2: int = 18,
        prefix_slots_log2: int = 19,
        prefix_stride: int = 0,
    ) -> None:
        self._etc_flat = ev._etc_flat
        self._eec_flat = ev._eec_flat
        self._arrivals = ev._arrivals
        self._task_types = ev._task_types
        self._tuf_table = ev._tuf_table
        self.use_cache = bool(use_cache)
        self.prefix_stride = int(prefix_stride)
        if self.prefix_stride < 0:
            raise ValueError(
                f"prefix_stride must be >= 0; got {prefix_stride}"
            )
        self.M = int(ev.num_machines)
        self.T = int(ev.num_tasks)
        self.Mq = int(ev._num_queues)
        self.qg = np.ascontiguousarray(ev._queue_groups, dtype=np.int64)
        self.queue_table = QueueStateTable(queue_slots_log2)
        self.prefix_table = PrefixStateTable(prefix_slots_log2)
        # Per-symbol hash tables: symbol = task_index * M + machine
        # (machines sharing a DVFS queue still hash apart — their ETC
        # columns differ); order keys go through a second table when
        # they fit it, and an arithmetic mix otherwise.
        self._r_sym = _odd_random_u64(self.T * self.M, stream=1)
        self._ord_cap = max(1024, 4 * self.T)
        self._r_ord = _odd_random_u64(self._ord_cap, stream=2)
        # Rolling-hash base powers for positional prefix keys.
        pow_b = np.empty(self.T + 1, dtype=U64)
        pow_b[0] = U64(1)
        base = (_MIX2 << U64(1)) | U64(1)
        np.multiply.accumulate(np.full(self.T, base, dtype=U64),
                               out=pow_b[1:])
        self._pow_b = pow_b
        # Grow-only scratch, keyed by element capacity.
        self._cap = 0
        self._rows_mq: Optional[np.ndarray] = None
        self._cols_m: Optional[np.ndarray] = None
        self._qids: Optional[np.ndarray] = None
        self._u64 = [np.empty(0, dtype=U64) for _ in range(2)]
        self._i64 = [np.empty(0, dtype=np.int64) for _ in range(2)]
        self._sort_scratch = None
        # Grow-only flat pools for the padded (queues × Lmax) fold
        # matrices — fresh MB-scale allocations would pay first-touch
        # page faults every call (see _KernelScratch in the evaluator).
        self._pad_cap = 0
        self._pads = [np.empty(0) for _ in range(5)]
        # Reuse statistics (lifetime + last batch).
        self.last_batch: dict = {}
        self.elements_total = 0
        self.elements_reused = 0

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
        s["prefix_hits"] = self.prefix_table.hits
        s["prefix_misses"] = self.prefix_table.misses
        s["elements_total"] = self.elements_total
        s["elements_reused"] = self.elements_reused
        s["reuse_rate"] = (
            self.elements_reused / self.elements_total
            if self.elements_total else 0.0
        )
        return s

    def clear(self) -> None:
        """Drop all cached queue and prefix states."""
        self.queue_table.clear()
        self.prefix_table.clear()

    def adopt_state(self, other: "BatchQueueKernel") -> None:
        """Take over *other*'s cached queue/prefix state and counters.

        Supports the online service's cross-window evaluator reuse: a
        window's evaluator is rebuilt over a longer (append-only) trace,
        but every cached state of the previous kernel remains valid for
        the new one — so the tables transfer wholesale instead of
        starting cold.  Validity rests on content fingerprints being a
        pure function of ``(task_index, machine, order_key)`` elements,
        which the per-symbol hash streams guarantee as long as they are
        prefix-stable under trace growth:

        * ``_r_sym``/``_r_ord`` are fixed-seed PCG64 draws over a
          power-of-two range (one 64-bit word per value, no rejection),
          so a longer stream extends the shorter one; asserted below.
        * ``_pow_b`` is a running product of a constant base.
        * The check word ``(queue_len << 20) | queue_id`` and the
          Fibonacci slot hash do not depend on the trace length.

        Raises :class:`~repro.errors.ScheduleError` when the kernels
        are not compatible (different machines, queue grouping, cache
        configuration, or a *shrunk* trace).
        """
        from repro.errors import ScheduleError

        if other is self:
            return
        if (
            other.M != self.M
            or other.Mq != self.Mq
            or not np.array_equal(other.qg, self.qg)
        ):
            raise ScheduleError(
                "cannot adopt kernel state across different machine/queue "
                "configurations"
            )
        if other.T > self.T:
            raise ScheduleError(
                f"cannot adopt state from a larger trace ({other.T} tasks) "
                f"into a smaller one ({self.T}); carryover is append-only"
            )
        if (
            other.use_cache != self.use_cache
            or other.prefix_stride != self.prefix_stride
        ):
            raise ScheduleError(
                "cannot adopt kernel state across different cache "
                "configurations (use_cache/prefix_stride must match)"
            )
        # Prefix stability of the hash streams — cheap (a vectorized
        # compare over at most T*M words) and load-bearing: a numpy
        # that re-derived bounded draws differently would silently
        # corrupt every adopted fingerprint.
        n_sym = other.T * other.M
        if not np.array_equal(self._r_sym[:n_sym], other._r_sym[:n_sym]):
            raise ScheduleError(
                "per-symbol hash stream is not prefix-stable; refusing to "
                "adopt cached queue states"
            )
        n_ord = min(self._ord_cap, other._ord_cap)
        if not np.array_equal(self._r_ord[:n_ord], other._r_ord[:n_ord]):
            raise ScheduleError(
                "order-key hash stream is not prefix-stable; refusing to "
                "adopt cached queue states"
            )
        self.queue_table = other.queue_table
        self.prefix_table = other.prefix_table
        self.elements_total = other.elements_total
        self.elements_reused = other.elements_reused

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

        resumed = 0
        if n_miss:
            resumed = self._compute_misses(
                miss_seg, seg, flat_m, flat_o, h, lens, k, check,
                uq, eq, fq,
            )

        self.elements_total += n
        self.elements_reused += hit_elems + resumed
        self.last_batch = {
            "rows": N,
            "elements": n,
            "queues": int(np.count_nonzero(nonempty)),
            "queue_hits": n_hits,
            "queue_misses": n_miss,
            "elements_reused": hit_elems + resumed,
            "elements_resumed": resumed,
            "reuse_rate": (hit_elems + resumed) / n if n else 0.0,
        }

        # Per-row totals: left fold over ascending queue id (empty
        # queues contribute +0.0, which is exact).
        utilities = np.cumsum(uq.reshape(N, Mq), axis=1)[:, -1]
        energies = np.cumsum(eq.reshape(N, Mq), axis=1)[:, -1]
        finish = fq.reshape(N, Mq).max(axis=1) if want_finish else None
        return energies, utilities, finish

    # -- miss path ---------------------------------------------------------

    def _compute_misses(
        self, miss_seg, seg, flat_m, flat_o, h, lens, k, check, uq, eq, fq
    ) -> int:
        """Sort, prefix-resume, and fold every missed queue.

        Fills ``uq``/``eq`` (and ``fq``) at missed segments and inserts
        the new states; returns the number of elements skipped through
        prefix resume.
        """
        from repro.sim.evaluator import _KernelScratch, _queue_order

        stride = self.prefix_stride if self.use_cache else 0
        elem_miss = miss_seg[seg]
        idx = np.flatnonzero(elem_miss)
        ns = idx.size
        sseg = seg[idx]
        sord = flat_o[idx]
        if self._sort_scratch is None:
            self._sort_scratch = _KernelScratch()
        perm = _queue_order(sseg, sord, self._sort_scratch)
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

        # Seeds: identity folds unless a cached prefix overrides them.
        seed_rm = np.full(nsm, -np.inf)
        seed_cs = np.zeros(nsm)
        seed_u = np.zeros(nsm)
        seed_e = np.zeros(nsm)
        resume = np.zeros(nsm, dtype=np.int64)
        resumed_elems = 0

        if stride:
            # Positional rolling hash: H_p = Σ_{i<=p} h_i · B^pos_i,
            # segment-relative via mod-2⁶⁴ offset subtraction (exact).
            hp = h[sidx] * self._pow_b[pos]
            cum = np.cumsum(hp.view(np.int64)).view(U64)
            seg_off = np.zeros(nsm, dtype=U64)
            seg_off[1:] = cum[starts[1:] - 1]
            hrel = cum - seg_off[segc]
            qid_m = (miss_ids % self.Mq)
            anchor = (pos % stride) == (stride - 1)
            a_idx = np.flatnonzero(anchor)
            if a_idx.size:
                a_check = (
                    ((pos[a_idx] + 1) << np.int64(20)) | qid_m[segc[a_idx]]
                ).view(U64)
                p_found, p_slots = self.prefix_table.lookup(
                    hrel[a_idx], a_check
                )
                self.prefix_table.hits += int(np.count_nonzero(p_found))
                self.prefix_table.misses += int(
                    a_idx.size - np.count_nonzero(p_found)
                )
                if p_found.any():
                    f_idx = a_idx[p_found]
                    f_slot = p_slots[p_found]
                    # Longest hit per segment wins.
                    best_len = np.zeros(nsm, dtype=np.int64)
                    np.maximum.at(best_len, segc[f_idx], pos[f_idx] + 1)
                    is_best = (pos[f_idx] + 1) == best_len[segc[f_idx]]
                    b_idx = f_idx[is_best]
                    b_slot = f_slot[is_best]
                    b_seg = segc[b_idx]
                    resume[b_seg] = pos[b_idx] + 1
                    pt = self.prefix_table.values
                    seed_rm[b_seg] = pt[0][b_slot]
                    seed_cs[b_seg] = pt[1][b_slot]
                    seed_u[b_seg] = pt[2][b_slot]
                    seed_e[b_seg] = pt[3][b_slot]
                    resumed_elems = int(resume.sum())

        # Keep only suffix elements (resume == 0 keeps everything).
        if resumed_elems:
            keep = pos >= resume[segc]
            sidx2 = sidx[keep]
            segc2 = segc[keep]
            pos2 = pos[keep] - resume[segc2]
            lens2 = lens_m - resume
            kept_pos = pos[keep]
        else:
            sidx2 = sidx
            segc2 = segc
            pos2 = pos
            lens2 = lens_m
            kept_pos = pos

        stask = sidx2 % self.T
        lin = stask * np.int64(self.M) + flat_m[sidx2]
        e_exec = self._etc_flat[lin]
        arr = self._arrivals[stask]

        has_suffix = lens2 > 0
        Lmax = int(lens2.max()) if ns else 0
        if Lmax:
            cells = nsm * Lmax
            if cells > self._pad_cap:
                self._pad_cap = max(cells, 2 * self._pad_cap)
                self._pads = [np.empty(self._pad_cap) for _ in range(5)]
            # Five fold planes from the grow-only pool; cumsums and the
            # running max run in place (ufunc.accumulate reads each
            # input element before writing its output slot).
            A_pad = self._pads[0][:cells].reshape(nsm, Lmax)
            E_pad = self._pads[1][:cells].reshape(nsm, Lmax)
            csp = self._pads[2][:cells].reshape(nsm, Lmax)
            U_pad = self._pads[3][:cells].reshape(nsm, Lmax)
            E2 = self._pads[4][:cells].reshape(nsm, Lmax)
            A_pad.fill(-np.inf)
            E_pad.fill(0.0)
            U_pad.fill(0.0)
            E2.fill(0.0)
            flat_ix = segc2 * np.int64(Lmax) + pos2
            A_pad.reshape(-1)[flat_ix] = arr
            E_pad.reshape(-1)[flat_ix] = e_exec
            # Seed the exec-time fold: cs_0 = seed_cs + e_0 as one add.
            E_pad[:, 0] += seed_cs * has_suffix
            cs = np.cumsum(E_pad, axis=1, out=E_pad)
            cs_prev = csp
            cs_prev[:, 0] = seed_cs
            cs_prev[:, 1:] = cs[:, :-1]
            key = np.subtract(A_pad, cs_prev, out=A_pad)
            np.maximum(key[:, 0], seed_rm, out=key[:, 0])
            runmax = np.maximum.accumulate(key, axis=1, out=key)
            F = np.add(runmax, cs, out=cs_prev)
            f_elem = F.reshape(-1)[flat_ix]
            elapsed = f_elem - arr
            u_elem = self._tuf_table.evaluate(self._task_types[stask], elapsed)
            U_pad.reshape(-1)[flat_ix] = u_elem
            U_pad[:, 0] += seed_u * has_suffix
            Uc = np.cumsum(U_pad, axis=1, out=U_pad)
            E2.reshape(-1)[flat_ix] = self._eec_flat[lin]
            E2[:, 0] += seed_e * has_suffix
            Ec = np.cumsum(E2, axis=1, out=E2)
            last_ix = np.arange(nsm, dtype=np.int64) * np.int64(Lmax)
            last_ix += np.maximum(lens2 - 1, 0)
            u_new = np.where(has_suffix, Uc.reshape(-1)[last_ix], seed_u)
            e_new = np.where(has_suffix, Ec.reshape(-1)[last_ix], seed_e)
            f_new = np.where(
                has_suffix,
                F.reshape(-1)[last_ix],
                seed_rm + seed_cs,
            )
        else:  # every missed queue fully covered by cached prefixes
            u_new = seed_u.copy()
            e_new = seed_e.copy()
            f_new = seed_rm + seed_cs

        uq[miss_ids] = u_new
        eq[miss_ids] = e_new
        if fq is not None:
            fq[miss_ids] = f_new

        if self.use_cache:
            self.queue_table.insert(
                k[miss_ids], check[miss_ids], u_new, e_new, f_new
            )
            if stride and Lmax:
                # Insert anchor states of freshly computed positions.
                new_anchor = np.flatnonzero(
                    ((kept_pos % stride) == (stride - 1))
                )
                if new_anchor.size:
                    a_flat = flat_ix[new_anchor]
                    a_keys = hrel[keep][new_anchor] if resumed_elems \
                        else hrel[new_anchor]
                    a_check = (
                        ((kept_pos[new_anchor] + 1) << np.int64(20))
                        | (miss_ids[segc2[new_anchor]] % self.Mq)
                    ).view(U64)
                    self.prefix_table.insert(
                        a_keys,
                        a_check,
                        runmax.reshape(-1)[a_flat],
                        cs.reshape(-1)[a_flat],
                        Uc.reshape(-1)[a_flat],
                        Ec.reshape(-1)[a_flat],
                    )
        return resumed_elems


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
