"""The queue fold and the population-at-once kernel built on it.

Semantics (paper Section IV): tasks queue on their assigned machine in
ascending ``(order key, task index)`` order; a task starts at
``max(machine free, arrival)``, finishes its ETC later and earns
``Υ_τ(completion − arrival)``; its energy is ``EEC(τ, Ω(m))``.

Fold
----
With queue-local exec-time prefix sums ``cs_j`` (a sequential left
fold) the finish time of the *j*-th queued task is::

    f_j = max_{i <= j}(a_i - cs_{i-1}) + cs_j

:func:`fold_queues` evaluates this with one ``cumsum`` and one
``maximum.accumulate`` over a padded ``(queues, max_len)`` matrix.
Per-queue utility and energy are sequential left folds in queue order,
taken as one column reduce over a ``(2, max_len, queues)`` plane;
per-row totals (:func:`row_totals`) are left folds over ascending
queue id.  Every fold is queue-content-deterministic — a queue's
numbers depend only on its own ordered content, never on the rest of
the batch — which is what makes cached queue states exact: results are
bit-identical with the cache on, off, across checkpoint resume, and
across serial/parallel execution.  A seed column continues the folds
from a known queue prefix (:class:`QueuePrefix`: the online service's
committed queues); a kernel binds one prefix for its lifetime, so its
cached queue states stay exact.  ``tests/oracles.py`` restates the same folds as scalar Python
loops; it is the exactness oracle the tests compare against.

Queue-state reuse
-----------------
Each queue's content is fingerprinted with a *commutative* 64-bit hash
— a wrapping mod-2⁶⁴ sum of per-element mixes, one scatter-add — so the
fingerprint needs no sort; the composite-key sort runs only over
elements of queues that miss.  The :class:`QueueStateTable` maps
fingerprints to the queue's ``(utility, energy, final finish)`` folds.
With the cache off nothing is hashed: every non-empty queue is sorted
and folded directly.

Because the sum commutes, a row's keys can also be built as an *edit*
of another row's: given a :class:`RowBase` (the row each batch row was
copied from, with its keys and queue lengths), the kernel masks the
genes in which the two rows differ, subtracts the base's element mix
and adds the row's at each of them, and moves the lengths by ±1 —
exact mod 2⁶⁴, so the keys equal a from-scratch hash bit for bit.  A
GA child differs from its base parent in a few percent of genes, so a
warm generation hashes only those.  A row whose base has no keys is
edited from the empty row (every gene differs, nothing comes out).  A
batch smaller than :data:`EDIT_MIN_ELEMENTS`, or whose rows differ from
their bases in more than :data:`EDIT_SHARE` of their genes, is hashed
in full instead: there, hashing each element once costs less than the
mask and two mixes per edited gene.  Either way every element gets its
queue label, and only the elements hashed or folded get their symbols.

Hash collisions would silently reuse a wrong state; keys carry 64
hashed bits plus the queue id and length as a separate check word, so
two distinct contents collide with probability ~2⁻⁶⁴ per pair — across
the ~10⁶ lookup/entry pairs of a long run the chance of even one
collision is below 10⁻⁷, far under the hardware soft-error rate, and
any collision is confined to one run (fingerprints never leave the
process).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "BatchQueueKernel",
    "KernelScratch",
    "QueueFolds",
    "QueuePrefix",
    "QueueStateTable",
    "RowBase",
    "fold_queues",
    "queue_order",
    "row_totals",
]

#: Default bound on cached queue states.  Sized from measured working
#: sets at the benchmark scales: a 125-generation Figure-3 run inserts
#: ~62k distinct queue states, so 2¹⁷ entries leave ~2× headroom before
#: a capacity clear at ~10 MB of table.  Power of two so the
#: open-addressing table uses it directly.
DEFAULT_CACHE_SIZE = 131_072

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


#: Fewest elements a batch must hold to be hashed as edits.  Editing
#: pays a fixed cost (the base gathers, the mask and two labelled
#: passes, about three times as many NumPy calls as hashing in full)
#: and a mask over every element, so its gain grows with the batch:
#: timed on ``_queue_keys``, editing matches hashing in full when about
#: 6% of the genes differ at 60 × 250 (15k elements), 7% at 100 × 250
#: and 10% at 40 × 4000 (160k), and at 3% it saves 0.01, 0.04 and
#: 0.9 ms.  Data set 1's GA batches (15k–25k elements) gain at most a
#: few hundredths of a millisecond, while a randomly seeded population
#: differs in a median 6.5% of its genes and in a third of its
#: generations past :data:`EDIT_SHARE`, where the mask is paid for
#: nothing; batches that small are always hashed in full.
EDIT_MIN_ELEMENTS = 32_768

#: Largest share of a batch's genes that may differ from their base
#: rows for the batch to be hashed as edits.  An edited gene costs two
#: mixes, each with gathers by position (about three times a direct
#: pass per element): at data set 3's size (40 × 4000 × 30) editing
#: beats hashing every element while under a tenth to an eighth of the
#: genes differ (timings vary that much between runs).  Early
#: generations, whose children differ from their parents in a third of
#: their genes, are hashed in full.
EDIT_SHARE = 0.125


#: Elements per ``flatnonzero`` call in :func:`_flatnonzero_into`: a
#: result of at most 128 KiB, reused heap rather than a fresh mapping.
_NONZERO_CHUNK = 16384


def _flatnonzero_into(mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.flatnonzero(mask)`` written into *out*, returned as a view.

    NumPy has no ``out=`` form (``np.compress`` is ``nonzero`` + ``take``
    and allocates as much), so the mask goes chunk by chunk: each
    chunk's small result is reused heap, never a fresh batch-sized map.
    """
    m = 0
    for lo in range(0, mask.shape[0], _NONZERO_CHUNK):
        part = np.flatnonzero(mask[lo:lo + _NONZERO_CHUNK])
        np.add(part, lo, out=out[m:m + part.shape[0]])
        m += part.shape[0]
    return out[:m]


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


#: Requests smaller than this many elements get fresh arrays: at that
#: size glibc serves them from the heap without page faults, more
#: cheaply than the buffer bookkeeping (online-service windows evaluate
#: a few hundred elements per batch, each window with a new kernel).
SCRATCH_MIN = 2048


class KernelScratch:
    """Grow-only work buffers of one kernel, one per name.

    At batch scale every fresh array is an ``mmap`` (or heap that glibc
    trims back after the call) and pays first-touch page faults on
    every call; named buffers kept for the owner's lifetime stay
    resident.  :meth:`get` returns the first *n* elements of a buffer
    viewed as any dtype of at most 8 bytes (contents undefined).  A
    buffer grows to at least the largest batch announced by
    :meth:`reserve`, and half again past what was asked (the fold
    plane's size varies with the batch's contents); pages a call does
    not touch cost no memory.  Temporaries share a name only if they
    are never live at once.  Single-threaded per owner.
    """

    __slots__ = ("_bufs", "_views", "_floor", "_arange")

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}
        #: Full-capacity views of the buffers by ``(name, dtype)``.
        self._views: dict[tuple, np.ndarray] = {}
        self._floor = 0
        self._arange = np.empty(0, dtype=np.int64)

    def reserve(self, n: int) -> None:
        """Size every buffer grown from now on for batches of *n*."""
        self._floor = max(self._floor, n)

    def get(self, name: str, n: int, dtype=np.int64) -> np.ndarray:
        """A length-*n* view of buffer *name* as *dtype* (a fresh array
        below :data:`SCRATCH_MIN`)."""
        if n < SCRATCH_MIN:
            return np.empty(n, dtype=dtype)
        view = self._views.get((name, dtype))
        if view is not None and view.shape[0] >= n:
            return view[:n]
        buf = self._bufs.get(name)
        if buf is None or buf.nbytes < n * np.dtype(dtype).itemsize:
            if buf is not None:  # views of the old buffer go with it
                for key in [k for k in self._views if k[0] == name]:
                    del self._views[key]
            old = 0 if buf is None else buf.shape[0]
            buf = np.empty(max(n + n // 2, self._floor, 2 * old),
                           dtype=np.int64)
            self._bufs[name] = buf
        view = self._views[(name, dtype)] = buf.view(dtype)
        return view[:n]

    def arange(self, n: int) -> np.ndarray:
        """``0 .. n-1`` as int64 (a shared, read-only-by-contract view)."""
        if self._arange.shape[0] < n:
            self._arange = np.arange(max(n, self._floor), dtype=np.int64)
        return self._arange[:n]


def queue_order(
    group: np.ndarray,
    order_key: np.ndarray,
    scratch: Optional[KernelScratch] = None,
    index: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Stable sort positions by ``(group, order_key, input index)``.

    Fast path: when ``group × key × index`` fits a single int64
    composite key, the index is appended in the low bits, making every
    key unique — so sorting the keys themselves and masking off the
    high bits yields exactly the stable ``argsort`` permutation, while
    beating both the stable radix passes and the multi-pass
    ``np.lexsort``.  All paths order ties identically, and all
    arithmetic is int64 whatever the input widths.

    *index*, when given, is an increasing int64 array of the elements'
    positions in a larger array; the result then holds those positions
    (``index[perm]``) instead of ``perm``.  The result is written to
    *out* when given, and is otherwise fresh: it never aliases
    *scratch*.
    """
    n = group.shape[0]
    gmin, gmax = int(group.min()), int(group.max())
    omin, omax = int(order_key.min()), int(order_key.max())
    key_range = omax - omin + 1
    top = n - 1 if index is None else int(index[-1])
    # Python-int arithmetic: no overflow while checking for overflow.
    cmax = (gmax - gmin + 1) * key_range - 1
    if cmax < 2**62:
        shift = max(top, 1).bit_length()
        if (cmax << shift) | top < 2**62:
            if scratch is None:
                scratch = KernelScratch()
            comp = np.subtract(group, gmin, out=scratch.get("sort_comp", n),
                               dtype=np.int64)
            comp *= key_range
            comp += np.subtract(order_key, omin,
                                out=scratch.get("sort_key", n),
                                dtype=np.int64)
            comp <<= shift
            comp |= scratch.arange(n) if index is None else index
            comp.sort()
            return np.bitwise_and(comp, np.int64((1 << shift) - 1), out=out)
        composite = (group - np.int64(gmin)) * np.int64(key_range) + (
            order_key.astype(np.int64) - omin
        )
        perm = np.argsort(composite, kind="stable")
    else:
        perm = np.lexsort((order_key, group))
    if index is not None:
        perm = index[perm]
    if out is None:
        return perm
    out[...] = perm
    return out


class QueueFolds(NamedTuple):
    """:func:`fold_queues` output.

    Per queue, in ascending label order: ``ids`` (the labels),
    ``cs_end`` and ``runmax_end`` (the end values of the exec-time sum
    and of the running maximum of ``arrival − preceding sum``) and
    ``ue`` (``(2, queues)``: the utility and energy folds).  Per
    element, in input order: ``finish`` and ``utility``.
    """

    ids: np.ndarray
    finish: np.ndarray
    utility: np.ndarray
    cs_end: np.ndarray
    runmax_end: np.ndarray
    ue: np.ndarray


def fold_queues(
    seg: np.ndarray,
    exec_times: np.ndarray,
    arrivals: np.ndarray,
    task_types: np.ndarray,
    energies: np.ndarray,
    tuf_table,
    seed: Optional[Sequence[np.ndarray]] = None,
    scratch: Optional[KernelScratch] = None,
) -> QueueFolds:
    """Fold every queue: finish times, utilities and per-queue folds.

    *seg* labels each element's queue; it is nondecreasing, with each
    queue's elements in queue order (as :func:`queue_order` sorts
    them).  The other per-element arrays are aligned with it.

    *seed*, when given, is ``(cs, runmax, utility, energy)``: per-queue
    start values of the four folds, each of length ``Q``; a queue
    labelled ``ℓ`` continues from entry ``ℓ mod Q`` (labels are
    ``row × Q + queue``).  They sit in a leading plane column, so the
    folds run exactly as over the whole queue they summarise.  Without
    a seed every fold starts from empty (``0.0``, ``-inf``).

    Every per-element temporary, ``finish`` and ``utility`` included,
    lives in *scratch* (fresh buffers when ``None``), so the returned
    per-element arrays are valid until the next call on the same
    scratch.
    """
    s = KernelScratch() if scratch is None else scratch
    n = seg.shape[0]
    new = s.get("fold_new", n, bool)
    new[0] = True
    np.not_equal(seg[1:], seg[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    # Queue ordinal per element: a cumsum over an int64 copy of the
    # start flags (a bool → int64 cumsum would allocate its own cast).
    segc = s.get("fold_segc", n)
    np.copyto(segc, new)
    np.cumsum(segc, out=segc)
    segc -= 1
    ids = seg[starts]
    S = starts.shape[0]
    lead = 0 if seed is None else 1
    col = np.add(s.arange(n), lead, out=s.get("fold_col", n))
    flat_ix = s.get("fold_ix", n)
    col -= starts.take(segc, out=flat_ix, mode="clip")
    L = int(col.max()) + 1
    # One buffer backs both stages: the (S, L) finish-time planes are
    # dead before the (2, L, W) utility/energy plane is written.  W >= 2
    # keeps the column reduce a left fold.
    W = max(S, 2)
    buf = s.get("fold_plane", 2 * L * W, np.float64)

    # Finish times need every prefix: row-wise cumsum and running max
    # (ufunc.accumulate reads each input element before writing its
    # output slot, so both run in place).  Padding (arrival -inf, exec
    # 0.0) leaves the last column holding every queue's end values.
    cells = S * L
    rm = buf[:cells].reshape(S, L)
    cs = buf[cells:2 * cells].reshape(S, L)
    rm.fill(-np.inf)
    cs.fill(0.0)
    np.multiply(segc, L, out=flat_ix)
    flat_ix += col
    rm.reshape(-1)[flat_ix] = arrivals
    cs.reshape(-1)[flat_ix] = exec_times
    if seed is not None:
        q = ids % seed[0].shape[0]
        cs[:, 0] = seed[0][q]
        rm[:, 0] = seed[1][q]
    np.cumsum(cs, axis=1, out=cs)
    # key_j = a_j - cs_{j-1}; unseeded, cs_{-1} = 0 (a - 0.0 == a).
    np.subtract(rm[:, 1:], cs[:, :-1], out=rm[:, 1:])
    np.maximum.accumulate(rm, axis=1, out=rm)
    cs_end = cs[:, -1].copy()
    runmax_end = rm[:, -1].copy()
    np.add(rm, cs, out=rm)
    finish = rm.reshape(-1).take(flat_ix, out=s.get("fold_finish", n,
                                                     np.float64),
                                 mode="clip")
    # The index is dead once gathered: its buffer takes the elapsed
    # times, which the TUF evaluation then consumes as its work buffer.
    elapsed = np.subtract(finish, arrivals,
                          out=s.get("fold_ix", n, np.float64))
    utility = tuf_table.evaluate(task_types, elapsed, s)

    plane = buf.reshape(2, L, W)
    plane.fill(0.0)
    col *= W  # now the flat plane index of each element
    col += segc
    plane[0].reshape(-1)[col] = utility
    plane[1].reshape(-1)[col] = energies
    if seed is not None:
        plane[0, 0, :S] = seed[2][q]
        plane[1, 0, :S] = seed[3][q]
    ue = _column_left_folds(plane)[:, :S]
    return QueueFolds(ids, finish, utility, cs_end, runmax_end, ue)


def row_totals(per_queue: np.ndarray) -> np.ndarray:
    """Per-row ``(utility, energy)`` of a ``(2, rows, queues)`` array.

    Left folds over ascending queue id (``accumulate`` is sequential;
    ``reduce`` would sum pairwise), run in place: the running sums
    overwrite *per_queue*, and the ``(2, rows)`` result is a view of it.
    """
    return np.add.accumulate(per_queue, axis=2, out=per_queue)[:, :, -1]


class QueueStateTable:
    """Full-queue states: content key → (utility, energy, final finish).

    A vectorized open-addressing hash table over parallel numpy arrays:
    keys are ``(key, check)`` uint64 pairs; the three values live in
    parallel float64 columns.  The table clears itself when the entry
    count would exceed half the slots (bounded memory, short probe
    chains); inserts that cannot find a slot within the probe cap are
    dropped — the cache is lossy by contract, which never changes
    results, only how much work is skipped.
    """

    #: Linear-probe rounds before a lookup/insert gives up.
    MAX_PROBES = 32

    def __init__(self, n_slots_log2: int = 18) -> None:
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
        self.values = [np.empty(n, dtype=np.float64) for _ in range(3)]
        self.capacity = n // 2
        self.entries = 0
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


class QueuePrefix(NamedTuple):
    """A queue prefix every evaluated row continues from.

    ``seed`` holds the end values of the four folds over each queue's
    prefix, ``(cs, runmax, utility, energy)``, one entry per queue (the
    :func:`fold_queues` seed).  ``tasks`` counts the prefix elements:
    each evaluated row counts them as served, not folded.  The offsets
    are added to every row total after the queue folds (the totals of
    tasks that left the prefix, e.g. a compacted ledger's).
    """

    seed: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    tasks: int = 0
    energy_offset: float = 0.0
    utility_offset: float = 0.0


class RowBase(NamedTuple):
    """The rows a batch's rows are edits of.

    ``assignments`` and ``orders`` are the ``(P, T)`` genes of the base
    rows and ``fingerprints`` their ``(P, 2·queues)`` queue keys and
    lengths as :meth:`BatchQueueKernel.evaluate_population` wrote them
    (an all-zero row for a row without them).  ``rows`` holds the
    ``(N,)`` base row of each batch row.
    """

    assignments: np.ndarray
    orders: np.ndarray
    fingerprints: np.ndarray
    rows: np.ndarray


class BatchQueueKernel:
    """Population-at-once evaluation with queue-state reuse.

    Holds the flat ``(task × machine)`` ETC/EEC gathers, the trace
    columns, the TUF table and the machine → queue map that
    :class:`~repro.sim.evaluator.ScheduleEvaluator` binds.  It keeps no
    reference to the evaluator: an evaluator owns its kernel, so a
    back-reference would put every evaluator in a reference cycle and
    keep it (with its scratch pools) alive until a cyclic garbage
    collection happens to run.

    Parameters
    ----------
    cache_size:
        Entry budget of the queue-state table, which holds up to half
        its slots (so the slot count doubles it); ``0`` disables
        queue-state reuse: every non-empty queue is folded each call
        and no element is hashed.  Results are bit-identical either way.
    prefix:
        Optional :class:`QueuePrefix` every queue continues from; empty
        queues then contribute the prefix partials.  It is fixed for
        the kernel's lifetime, so cached queue states stay exact.
    """

    def __init__(
        self,
        etc_flat: np.ndarray,
        eec_flat: np.ndarray,
        arrivals: np.ndarray,
        task_types: np.ndarray,
        tuf_table,
        queue_groups: np.ndarray,
        cache_size: int = DEFAULT_CACHE_SIZE,
        prefix: Optional[QueuePrefix] = None,
    ) -> None:
        self._etc_flat = etc_flat
        self._eec_flat = eec_flat
        self._arrivals = arrivals
        self._task_types = task_types
        self._tuf_table = tuf_table
        self.use_cache = cache_size > 0
        self.qg = np.ascontiguousarray(queue_groups, dtype=np.int64)
        self.M = int(self.qg.shape[0])
        self.T = int(arrivals.shape[0])
        self.Mq = int(self.qg.max()) + 1
        # Without a prefix the folds start from empty queues, and need
        # no seed column.
        self._seed = None if prefix is None else prefix.seed
        if prefix is None:
            prefix = QueuePrefix((
                np.zeros(self.Mq), np.full(self.Mq, -np.inf),
                np.zeros(self.Mq), np.zeros(self.Mq),
            ))
        self.prefix = prefix
        # What an empty queue contributes: its prefix's folds.
        cs, runmax, u, e = prefix.seed
        self._empty_ue = np.array([u, e])
        self._empty_finish = runmax + cs
        self._queue_table: Optional[QueueStateTable] = None
        self._queue_slots_log2 = min(
            28, max(8, (2 * cache_size - 1).bit_length())
        )
        if self.use_cache:
            # Per-symbol hash tables: symbol = task_index * M + machine
            # (machines sharing a DVFS queue still hash apart — their
            # ETC columns differ); order keys go through a second table
            # when they fit it, and an arithmetic mix otherwise.
            self._r_sym = _odd_random_u64(self.T * self.M, stream=1)
            self._ord_cap = max(1024, 4 * self.T)
            self._r_ord = _odd_random_u64(self._ord_cap, stream=2)
        # Per-batch index tables, keyed by element capacity, and the
        # grow-only buffers of every per-element temporary.
        self._cap = 0
        self._rows_m: Optional[np.ndarray] = None
        self._tasks: Optional[np.ndarray] = None
        self._seg_of: Optional[np.ndarray] = None
        self._qids: Optional[np.ndarray] = None
        self._scratch = KernelScratch()
        # Reuse statistics (lifetime + last batch).
        self.last_batch: dict = {}
        self.queue_hits = 0
        self.queue_misses = 0
        self.elements_total = 0
        self.elements_reused = 0
        self.elements_hashed = 0

    def edits(self, rows: int) -> bool:
        """Whether a batch of *rows* rows is fingerprinted as edits of
        its base rows: the cache is on and the batch holds at least
        :data:`EDIT_MIN_ELEMENTS` elements.  Smaller batches neither use
        base rows nor need fingerprints kept for later ones."""
        return self.use_cache and rows * self.T >= EDIT_MIN_ELEMENTS

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
        self._scratch.reserve(n)
        rows = np.arange(N, dtype=np.int64)
        self._rows_m = np.repeat(rows * self.M, self.T)
        # Queue label of each (row, machine) pair: row * Mq + queue.
        self._seg_of = (rows[:, None] * self.Mq + self.qg).reshape(-1)
        # Task of each flat position: a gather, about a fifth of the
        # cost of NumPy's int64 remainder by T.
        self._tasks = np.tile(np.arange(self.T, dtype=np.int64), N)
        if self.use_cache:
            self._qids = np.tile(np.arange(self.Mq, dtype=np.int64), N)

    # -- hashing -----------------------------------------------------------

    def _element_hashes(
        self, sym: np.ndarray, flat_order: np.ndarray, n: int
    ) -> np.ndarray:
        """Joint (symbol, order-key) 64-bit mixes, one per element.

        An element's mix depends on the element alone, never on the
        rest of the batch: order keys inside the ``_r_ord`` table go
        through it, any other key through an arithmetic mix.  That is
        what lets a row's keys be edited in one batch and hashed in
        full in another.
        """
        s = self._scratch
        out = s.get("a", n, U64)
        # mode="clip": see evaluate_population; symbols are in range
        # because the machine indices are, and the order keys are
        # range-checked just below.
        np.take(self._r_sym, sym, out=out, mode="clip")
        if flat_order.dtype != np.int64:
            # Gathers index with int64: NumPy would otherwise make its
            # own int64 copy of narrower keys on every call.
            wide = s.get("b", n)
            np.copyto(wide, flat_order)
            flat_order = wide
        if not n:
            return out
        ho = np.take(self._r_ord, flat_order, out=s.get("c", n, U64),
                     mode="clip")
        cap = self._ord_cap
        if int(flat_order.min()) < 0 or int(flat_order.max()) >= cap:
            # Keys outside the table: full arithmetic mix, forced odd so
            # the product never degenerates to even-only values.
            far = (flat_order < 0) | (flat_order >= cap)
            wide = flat_order[far].view(U64)
            ho[far] = (_mix64(wide * _PHI + U64(1)) << U64(1)) | U64(1)
        np.multiply(out, ho, out=out)
        return out

    def _element_labels(
        self, flat_m: np.ndarray, flat_o: np.ndarray, pos: np.ndarray,
        seg: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(sym, seg, order key)`` of the elements at *pos* of the flat
        genes: the symbol ``task × M + machine`` and the queue label
        ``row × Mq + queue`` (gathered from every element's labels
        *seg* when given)."""
        s = self._scratch
        n = pos.shape[0]
        machines = flat_m.take(pos, out=s.get("fold_col", n, flat_m.dtype),
                               mode="clip")
        sym = self._tasks.take(pos, out=s.get("sort_key", n), mode="clip")
        sym *= self.M
        sym += machines
        if seg is None:
            pair = self._rows_m.take(pos, out=s.get("fold_ix", n),
                                     mode="clip")
            pair += machines
            seg = self._seg_of.take(pair, out=s.get("sort_comp", n),
                                    mode="clip")
        else:
            seg = seg.take(pos, out=s.get("sort_comp", n), mode="clip")
        orders = flat_o.take(pos, out=s.get("sym", n, flat_o.dtype),
                             mode="clip")
        return sym, seg, orders

    def _add_mixes(
        self, keys: np.ndarray, lens: np.ndarray, sym: np.ndarray,
        seg: np.ndarray, orders: np.ndarray, subtract: bool = False,
    ) -> int:
        """Add (or subtract) the mixes of elements ``(sym, order key)``
        to their queues' *keys* and *lens*; returns how many elements
        were hashed.  uint64 arithmetic wraps, so the edit is exact mod
        2⁶⁴ in any order."""
        n = sym.shape[0]
        h = self._element_hashes(sym, orders, n)
        n_seg = keys.shape[0]
        sums = _segment_key_sums(h, seg, n_seg)
        counts = np.bincount(seg, minlength=n_seg)
        if subtract:
            keys -= sums
            lens -= counts
        else:
            keys += sums
            lens += counts
        return n

    def _queue_keys(
        self, assignments: np.ndarray, orders: np.ndarray, seg: np.ndarray,
        base: Optional["RowBase"],
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Per-queue ``(keys, lengths, elements hashed)`` of the batch,
        whose elements' queue labels *seg* holds.

        With a *base*, each row starts from its base row's fingerprints
        and hashes only the genes in which the two differ: the base's
        element mix comes out of the key, the row's goes in.  A row whose
        base has no fingerprints (an all-zero row) is edited from the
        empty row, where every gene differs and there is nothing to take
        out.  A batch without a base, smaller than
        :data:`EDIT_MIN_ELEMENTS`, or whose rows differ from their bases
        in more than :data:`EDIT_SHARE` of their genes is hashed in full:
        there, hashing every element once costs less.
        """
        N, T = assignments.shape
        Mq = self.Mq
        n = N * T
        flat_m = assignments.reshape(-1)
        flat_o = orders.reshape(-1)
        s = self._scratch
        if base is not None and self.edits(N):
            rows = base.rows
            # The base rows, gathered next to the batch, and the mask of
            # genes in which each row differs from its base.  They, the
            # edits and their gathers live in the fold's and the sort's
            # buffers (and "idx"), all free until the misses are folded.
            base_m = s.get("fold_finish", n, base.assignments.dtype)
            base_m = np.take(base.assignments, rows, axis=0, mode="clip",
                             out=base_m.reshape(N, T))
            base_o = s.get("fold_segc", n, base.orders.dtype)
            base_o = np.take(base.orders, rows, axis=0, mode="clip",
                             out=base_o.reshape(N, T))
            diff = np.not_equal(assignments, base_m,
                                out=s.get("fold_new", n, bool).reshape(N, T))
            diff |= np.not_equal(orders, base_o,
                                 out=s.get("c", n, bool).reshape(N, T))
            state = base.fingerprints.take(rows, axis=0, mode="clip")
            stateful = state[:, Mq:].any(axis=1)
            diff[~stateful] = True
            if np.count_nonzero(diff) <= EDIT_SHARE * n:
                keys = np.ascontiguousarray(state[:, :Mq]).reshape(-1)
                lens = state[:, Mq:].astype(np.int64).reshape(-1)
                edits = _flatnonzero_into(diff.reshape(-1),
                                          s.get("idx", n))
                old = edits
                if not stateful.all():
                    old = edits[stateful.take(edits // T)]
                hashed = self._add_mixes(
                    keys, lens, *self._element_labels(
                        base_m.reshape(-1), base_o.reshape(-1), old),
                    subtract=True,
                )
                hashed += self._add_mixes(
                    keys, lens,
                    *self._element_labels(flat_m, flat_o, edits, seg),
                )
                return keys, lens, hashed
        sym = np.multiply(self._tasks[:n], self.M, out=s.get("sym", n))
        sym += flat_m
        keys = _segment_key_sums(self._element_hashes(sym, flat_o, n), seg,
                                 N * Mq)
        return keys, np.bincount(seg, minlength=N * Mq), n

    # -- public API --------------------------------------------------------

    def evaluate_population(
        self, assignments: np.ndarray, orders: np.ndarray,
        want_finish: bool = False, base: Optional["RowBase"] = None,
        fingerprints: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """``(energies, utilities, makespans)`` for an already-validated
        batch; makespans (``None`` unless *want_finish*) are the maxima
        over queue final finishes — ``max`` is rounding-free, so they
        are as exact as the queue states themselves.

        With the cache on, *fingerprints*, when given, is an ``(N,
        2·Mq)`` uint64 array that receives each row's queue keys and
        then its queue lengths, and *base* (a :class:`RowBase`) names
        the rows whose fingerprints each row is built from as an edit
        (used only where :meth:`edits` holds).  Keys, results and every
        counter but ``elements_hashed`` are the same with or without a
        base.
        """
        N, T = assignments.shape
        Mq = self.Mq
        n = N * T
        n_seg = N * Mq
        self._ensure(N)
        s = self._scratch
        flat_m = assignments.reshape(-1)
        flat_o = orders.reshape(-1)
        # seg = row * Mq + queue(machine), each element's queue label,
        # looked up through row * M + machine; the symbol task * M +
        # machine is built only for the elements hashed, sorted or
        # folded.  Every per-element temporary lives in the kernel's
        # scratch, and gathers into it pass mode="clip": under the
        # default mode="raise" NumPy buffers the output, about twice the
        # cost on large batches.  Clipping never changes a value here:
        # every caller validates the machine indices and base rows first
        # (ScheduleEvaluator._checked_batch), so none is out of range.
        # Buffer "seg" lives until the gathers before the fold, "idx"
        # (the missed elements) until the sort; "a", "b" and "c" are
        # reused phase by phase (hashing, sort inputs, gathers), as are
        # queue_order's two.
        seg = self._seg_of.take(
            np.add(self._rows_m[:n], flat_m, out=s.get("a", n)),
            out=s.get("seg", n), mode="clip",
        )

        # Per-queue (utility, energy) and final finish, empty queues
        # keeping their prefix's.
        ue = np.empty((2, n_seg))
        ue.reshape(2, N, Mq)[...] = self._empty_ue[:, None, :]
        fq = None
        if want_finish:
            fq = np.empty(n_seg)
            fq.reshape(N, Mq)[...] = self._empty_finish

        # idx: positions of the elements to sort and fold; None = all.
        idx = None
        n_hits = hit_elems = hashed = 0
        if self.use_cache:
            k, lens, hashed = self._queue_keys(assignments, orders, seg,
                                               base)
            if fingerprints is not None:
                fingerprints[:, :Mq] = k.reshape(N, Mq)
                fingerprints[:, Mq:] = lens.reshape(N, Mq)
            # The check word carries structure the sum-hash does not.
            check = ((lens << np.int64(20)) | self._qids[:n_seg]).view(U64)
            nonempty = lens > 0
            # Probe only nonempty segments: empty ones can never match
            # (entries always carry length > 0) and their all-zero keys
            # would pile onto one probe chain.
            found = np.zeros(n_seg, dtype=bool)
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
                values = self.queue_table.values
                ue[0, hit_ids] = values[0][hs]
                ue[1, hit_ids] = values[1][hs]
                if want_finish:
                    fq[hit_ids] = values[2][hs]
                n_hits = int(np.count_nonzero(found))
                hit_elems = int(lens[found].sum())
                # Elements of missed queues, in input order.
                miss = (nonempty & ~found).take(
                    seg, out=s.get("c", n, bool), mode="clip"
                )
                idx = _flatnonzero_into(miss, s.get("idx", n))

        n_miss = 0
        if idx is None or idx.size:
            # Sort and fold every missed queue (every non-empty queue
            # when nothing hit), then store the states.
            if idx is None:
                m = n
                sidx = queue_order(seg, flat_o, s, out=s.get("c", m))
            else:
                m = idx.shape[0]
                sidx = queue_order(
                    seg.take(idx, out=s.get("a", m), mode="clip"),
                    flat_o.take(idx, out=s.get("b", m, flat_o.dtype),
                                mode="clip"),
                    s, index=idx, out=s.get("c", m),
                )
            # sidx: batch positions in queue order; lin = task * M +
            # machine, the flat ETC/EEC index, and sseg their queue
            # labels.  Each gather lands in a buffer whose previous
            # content is dead by then.
            stask = self._tasks.take(sidx, out=s.get("a", m), mode="clip")
            sseg = seg.take(sidx, out=s.get("sort_key", m), mode="clip")
            lin = np.multiply(stask, self.M, out=s.get("b", m))
            lin += flat_m.take(sidx, mode="clip",
                               out=s.get("sort_comp", m, flat_m.dtype))
            etc = self._etc_flat.take(lin, out=s.get("c", m, np.float64),
                                      mode="clip")
            arrivals = self._arrivals.take(
                stask, out=s.get("sort_comp", m, np.float64), mode="clip"
            )
            types = self._task_types.take(
                stask, out=s.get("sym", m, self._task_types.dtype),
                mode="clip",
            )
            eec = self._eec_flat.take(lin, out=s.get("a", m, np.float64),
                                      mode="clip")
            folds = fold_queues(
                sseg, etc, arrivals, types, eec, self._tuf_table,
                seed=self._seed, scratch=s,
            )
            miss_ids = folds.ids
            n_miss = int(miss_ids.shape[0])
            ue[:, miss_ids] = folds.ue
            if want_finish or self.use_cache:
                f_new = folds.runmax_end + folds.cs_end
                if want_finish:
                    fq[miss_ids] = f_new
                if self.use_cache:
                    self.queue_table.insert(
                        k[miss_ids], check[miss_ids], folds.ue[0],
                        folds.ue[1], f_new,
                    )

        # Prefix elements are served from the prefix state in every row.
        served = N * self.prefix.tasks
        elements = n + served
        reused = hit_elems + served
        self.queue_hits += n_hits
        self.queue_misses += n_miss
        self.elements_total += elements
        self.elements_reused += reused
        self.elements_hashed += hashed
        self.last_batch = {
            "rows": N,
            "elements": elements,
            "elements_hashed": hashed,
            "queues": n_hits + n_miss,
            "queue_hits": n_hits,
            "queue_misses": n_miss,
            "elements_reused": reused,
            "reuse_rate": reused / elements if elements else 0.0,
        }

        energies, utilities = self._totals(ue, N)
        finish = fq.reshape(N, Mq).max(axis=1) if want_finish else None
        return energies, utilities, finish

    def fold_row(
        self, assignment: np.ndarray, order: np.ndarray
    ) -> tuple[np.ndarray, QueueFolds, float, float]:
        """Fold one validated row in full, bypassing the queue cache.

        Returns ``(perm, folds, energy, utility)``: *perm* puts the
        row's tasks in queue order, and *folds* are
        :func:`fold_queues`' output over them in that order.
        """
        seg = self.qg[assignment]
        # Fresh buffers: one row's longest queue can dwarf a batch's, and
        # the kernel's scratch would keep it for the kernel's lifetime.
        perm = queue_order(seg, order)
        lin = perm * self.M + assignment[perm]
        folds = fold_queues(
            seg[perm], self._etc_flat[lin], self._arrivals[perm],
            self._task_types[perm], self._eec_flat[lin], self._tuf_table,
            seed=self._seed,
        )
        ue = self._empty_ue.copy()
        ue[:, folds.ids] = folds.ue
        (energy,), (utility,) = self._totals(ue, 1)
        return perm, folds, float(energy), float(utility)

    @property
    def stats(self) -> dict:
        """Queue-reuse counters: table stats + element-level reuse."""
        table = self._queue_table
        lookups = self.queue_hits + self.queue_misses
        return {
            "hits": self.queue_hits,
            "misses": self.queue_misses,
            "entries": table.entries if table is not None else 0,
            "evictions": table.evictions if table is not None else 0,
            "hit_rate": self.queue_hits / lookups if lookups else 0.0,
            "elements_total": self.elements_total,
            "elements_reused": self.elements_reused,
            "elements_hashed": self.elements_hashed,
            "reuse_rate": (
                self.elements_reused / self.elements_total
                if self.elements_total else 0.0
            ),
        }

    def clear(self) -> None:
        """Drop all cached queue states."""
        if self._queue_table is not None:
            self._queue_table.clear()

    # -- core --------------------------------------------------------------

    def _totals(
        self, ue: np.ndarray, N: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row ``(energies, utilities)`` of ``(2, N × Mq)`` queue
        folds, plus the prefix offsets.  The running sums overwrite
        *ue*; the results are fresh arrays."""
        utilities, energies = row_totals(ue.reshape(2, N, self.Mq))
        prefix = self.prefix
        if prefix.energy_offset or prefix.utility_offset:
            return (energies + prefix.energy_offset,
                    utilities + prefix.utility_offset)
        return energies.copy(), utilities.copy()
