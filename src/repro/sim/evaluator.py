"""Vectorized schedule evaluation — the simulator hot path.

Semantics (paper Section IV): tasks queue on their assigned machine in
global-scheduling-order (ties by task index); a task's start time is
``max(machine available, arrival)``; its completion adds its ETC; its
utility is ``Υ_τ(completion − arrival)``; its energy is
``EEC(τ, Ω(m)) = ETC·EPC`` regardless of queueing.

Closed form used here: within one machine's queue, with arrivals
``a_1..a_n`` and execution times ``e_1..e_n`` in queue order,

    f_j = max(f_{j-1}, a_j) + e_j
        = cumsum(e)_j + max_{k<=j} ( a_k − cumsum(e)_{k−1} )

so every queue is a segmented cumulative sum plus a segmented running
maximum.  Tasks of all machines (and, in batch mode, all chromosomes)
are sorted into queue order with one composite-key radix sort; the
segmented running maximum uses the classic ``segment_id × BIG`` offset
trick only after *validating elementwise that the offset addition is
exact* (so results are provably the true within-segment running
maxima), and otherwise falls back to an exact Hillis–Steele doubling
scan.  Exactness matters beyond precision: it makes every chromosome's
finish times independent of which batch it was evaluated in, which is
what lets the evaluation cache return bit-identical objectives.
There is no Python-level loop over tasks anywhere on this path
(cf. the HPC guide's "vectorizing for loops").

Batch evaluation adds two amortizations:

* a :class:`_BatchWorkspace` holding the grow-only tiled arrival /
  task-type / row-index / queue-offset buffers (tiling only depends on
  the batch size, and a length-``N·T`` tiling is a prefix of any longer
  one);
* an :class:`EvaluationCache` keyed by a 128-bit digest of each
  chromosome row's bytes, so rows already evaluated (survivors cloned
  by crossover, re-discovered chromosomes in converged populations)
  never hit the segmented kernel again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from hashlib import blake2b
from typing import Callable, Optional

import numpy as np

from repro.errors import ScheduleError
from repro.model.system import SystemModel
from repro.obs.context import NULL_CONTEXT, RunContext
from repro.sim.batchkernel import BatchQueueKernel, batch_reference_row
from repro.sim.schedule import ResourceAllocation
from repro.types import BoolArray, FloatArray, IntArray
from repro.utility.vectorized import TUFTable
from repro.workload.trace import Trace

__all__ = [
    "EvaluationResult",
    "EvaluationCache",
    "EvaluatorArrays",
    "ScheduleEvaluator",
    "DEFAULT_KERNEL_METHOD",
]

#: Default evaluation kernel.  The population-at-once batch kernel wins
#: at every bundled scale (BENCH_ga_hotloop.json: ``current`` vs
#: ``fast``) and is bit-identical to its scalar oracle, so it is
#: the default; "fast" and "reference" stay selectable everywhere a
#: ``kernel_method`` knob exists (goldens captured before the flip pin
#: "fast" explicitly).
DEFAULT_KERNEL_METHOD = "batch"

#: Default bound on cached evaluations.  Sized from measured working
#: sets at the benchmark scales: a 125-generation Figure-3 run inserts
#: ~62k distinct queue states, so 2¹⁷ entries leave ~2× headroom before
#: a capacity clear while costing ~20 MB for the chromosome cache and
#: ~10 MB for the batch kernel's queue-state table.  Power of two so
#: the batch kernel's open-addressing tables use it directly.
DEFAULT_CACHE_SIZE = 131_072


@dataclass(frozen=True)
class EvaluationResult:
    """Full outcome of simulating one resource allocation.

    Attributes
    ----------
    energy:
        Total energy consumed ``E`` (joules) — Eq. (3).
    utility:
        Total utility earned ``U`` — Eq. (1).
    start_times, completion_times:
        ``(T,)`` arrays (seconds).
    task_utilities:
        ``(T,)`` per-task utility earned.
    task_energies:
        ``(T,)`` per-task energy (joules).
    """

    energy: float
    utility: float
    start_times: FloatArray
    completion_times: FloatArray
    task_utilities: FloatArray
    task_energies: FloatArray

    @property
    def makespan(self) -> float:
        """Latest completion time across all tasks."""
        return float(self.completion_times.max())

    @property
    def objectives(self) -> tuple[float, float]:
        """``(energy, utility)`` pair for the optimizer."""
        return (self.energy, self.utility)


@dataclass(frozen=True)
class EvaluatorArrays:
    """The evaluator's precomputed per-task gathers, supplied externally.

    Normally :class:`ScheduleEvaluator` derives these from the system
    and trace at construction — a fancy-indexing copy of O(tasks ×
    machines) per array.  The shared-memory parallel engine
    (:mod:`repro.parallel`) computes them once per experiment, publishes
    them into a shared segment, and hands every worker zero-copy views
    wrapped in this container, so evaluator construction in a pool
    worker costs no array materialization at all.  Arrays must match
    what the evaluator would have computed itself — bit for bit — which
    :func:`repro.parallel.descriptors.dataset_arrays` guarantees by
    running the same expressions.

    Attributes
    ----------
    etc_rows, eec_rows:
        ``(T, M)`` per-task ETC / EEC rows (task *i* × machine *m*).
    feasible_rows:
        ``(T, M)`` boolean feasibility per task and machine.
    tuf_table:
        The stacked :class:`~repro.utility.vectorized.TUFTable`.
    """

    etc_rows: FloatArray
    eec_rows: FloatArray
    feasible_rows: BoolArray
    tuf_table: TUFTable


class _KernelScratch:
    """Grow-only temporaries for the segmented kernel.

    At batch scale every per-call temporary is a few hundred KB; fresh
    allocations of that size are served by ``mmap``, so each kernel call
    would pay first-touch page faults across several MB — comparable to
    the arithmetic itself.  One reusable, grow-only set of buffers keeps
    the pages resident.  Buffers are handed out as ``[:n]`` views; the
    evaluator is single-threaded per instance, so reuse is safe.
    """

    __slots__ = ("capacity", "arange", "i64", "f64", "boolean")

    def __init__(self) -> None:
        self.capacity = 0

    def ensure(self, n: int) -> None:
        """Grow the buffer pool to hold at least *n* elements."""
        if n > self.capacity:
            capacity = max(n, 2 * self.capacity)
            self.arange = np.arange(capacity, dtype=np.int64)
            self.i64 = [np.empty(capacity, dtype=np.int64) for _ in range(4)]
            self.f64 = [np.empty(capacity, dtype=np.float64) for _ in range(8)]
            self.boolean = [np.empty(capacity, dtype=bool) for _ in range(2)]
            self.capacity = capacity


def _queue_order(
    group: IntArray,
    order_key: IntArray,
    scratch: Optional[_KernelScratch] = None,
) -> IntArray:
    """Stable sort positions by ``(group, order_key, input index)``.

    Fast path: when ``group × key × index`` fits a single int64
    composite key, the index is appended in the low bits, making every
    key unique — so sorting the keys themselves and masking off the
    high bits yields exactly the stable ``argsort`` permutation, while
    beating both the stable radix passes and the multi-pass
    ``np.lexsort``.  All paths order ties identically.
    """
    n = group.shape[0]
    gmin, gmax = int(group.min()), int(group.max())
    omin, omax = int(order_key.min()), int(order_key.max())
    key_range = omax - omin + 1
    # Python-int arithmetic: no overflow while checking for overflow.
    cmax = (gmax - gmin + 1) * key_range - 1
    if cmax < 2**62:
        shift = max(n - 1, 1).bit_length()
        if (cmax << shift) | (n - 1) < 2**62:
            if scratch is not None:
                scratch.ensure(n)
                comp = scratch.i64[0][:n]
                tmp = scratch.i64[1][:n]
                arange = scratch.arange[:n]
            else:
                comp = np.empty(n, dtype=np.int64)
                tmp = np.empty(n, dtype=np.int64)
                arange = np.arange(n, dtype=np.int64)
            np.subtract(group, gmin, out=comp)
            comp *= key_range
            np.subtract(order_key, omin, out=tmp)
            comp += tmp
            comp <<= shift
            comp |= arange
            comp.sort()
            return comp & np.int64((1 << shift) - 1)
        composite = (group - gmin) * np.int64(key_range) + (order_key - omin)
        return np.argsort(composite, kind="stable")
    return np.lexsort((order_key, group))


def _segmented_running_max_scan(
    values: FloatArray, pos_in_seg: IntArray, max_seg_len: int
) -> FloatArray:
    """Exact within-segment running maximum via Hillis–Steele doubling.

    ``pos_in_seg`` gives each element's offset from its segment start.
    O(n log L) with L the longest segment; no magnitude tricks, so it is
    correct for any value range (used when the offset fast path cannot
    prove itself exact).
    """
    m = values.copy()
    shift = 1
    while shift < max_seg_len:
        # Candidates read wholly from the previous iteration's array
        # before any write (Hillis–Steele synchronous update).
        candidate = np.maximum(m[shift:], m[:-shift])
        within = pos_in_seg[shift:] >= shift
        m[shift:][within] = candidate[within]
        shift *= 2
    return m


def _segmented_running_max(
    key: FloatArray,
    seg_id: IntArray,
    starts: IntArray,
    buffers: Optional[tuple] = None,
) -> FloatArray:
    """Exact running maximum of *key* within each segment.

    Fast path: shift each segment's values by ``seg_id × BIG`` so one
    global ``np.maximum.accumulate`` never leaks across segments.  The
    shift is trusted only when the addition round-trips elementwise
    (``(key + offset) − offset == key``): round-trip equality implies
    the shifted values are the exact real sums, hence order-preserving
    within segments, separated across segments, and exactly
    recoverable.  Otherwise (huge arrival spans × many batch segments —
    the float-precision regression this guards against) the doubling
    scan computes the same result without any offset.

    *buffers*, when given, is ``(offset, shifted, vbuf, eq)`` scratch
    views of the input's length; the result may alias ``shifted``.
    """
    n = key.shape[0]
    if starts.shape[0] == 1:
        return np.maximum.accumulate(key)
    if buffers is None:
        offset = np.empty(n, dtype=np.float64)
        shifted = np.empty(n, dtype=np.float64)
        vbuf = np.empty(n, dtype=np.float64)
        eq = np.empty(n, dtype=bool)
    else:
        offset, shifted, vbuf, eq = buffers
    span = float(key.max() - key.min())
    big = span + 1.0
    np.multiply(seg_id, big, out=offset)
    np.add(key, offset, out=shifted)
    np.subtract(shifted, offset, out=vbuf)
    np.equal(vbuf, key, out=eq)
    if eq.all():
        np.maximum.accumulate(shifted, out=shifted)
        shifted -= offset
        return shifted
    seg_len = np.diff(np.append(starts, n))
    pos_in_seg = np.arange(n) - starts[seg_id]
    return _segmented_running_max_scan(key, pos_in_seg, int(seg_len.max()))


def _segmented_finish_times(
    group: IntArray,
    order_key: IntArray,
    arrivals: FloatArray,
    exec_times: FloatArray,
    row_block: Optional[int] = None,
    scratch: Optional[_KernelScratch] = None,
) -> FloatArray:
    """Finish times for tasks queued per *group*, ordered by *order_key*.

    *group* is any integer labeling such that tasks sharing a label
    share a queue (machine index, or machine ⊕ chromosome offset in
    batch mode).  Returns finish times aligned with the input arrays.

    *row_block* declares that the input is ``k`` independent rows of
    that many elements whose group ids strictly separate rows (batch
    mode: ``group = queue + row × num_queues``), so after the sort each
    row occupies one contiguous block.  The cumulative sums are then
    computed per block, never across rows — combined with the exact
    running maximum this makes each row's finish times bit-identical
    no matter which batch it is evaluated in, the property the
    evaluation cache and the retry runner's re-batching rely on.
    ``None`` treats the whole input as one row.

    *scratch*, when given, supplies the reusable temporaries (see
    :class:`_KernelScratch`); results are identical with or without it.
    """
    n = group.shape[0]
    if row_block is None:
        row_block = n
    elif n % row_block != 0:
        raise ScheduleError(
            f"input length {n} is not a multiple of row_block {row_block}"
        )
    idx = _queue_order(group, order_key, scratch)
    if scratch is not None:
        # _queue_order only allocates on its composite fast path; its
        # lexsort fallback leaves the pool untouched, so ensure here.
        scratch.ensure(n)
        # i64[0]/i64[1] were _queue_order's work buffers; both are free
        # again once it has returned idx (always a fresh array).
        g = np.take(group, idx, out=scratch.i64[0][:n])
        e = np.take(exec_times, idx, out=scratch.f64[0][:n])
        a = np.take(arrivals, idx, out=scratch.f64[1][:n])
        new_seg = scratch.boolean[0][:n]
        seg_id = scratch.i64[1][:n]
        cs = scratch.f64[2][:n]
        tmp = scratch.f64[3][:n]
        key = scratch.f64[4][:n]
        buffers = (
            scratch.f64[5][:n],  # offset
            scratch.f64[6][:n],  # shifted
            tmp,  # validation buffer; tmp is dead once key is built
            scratch.boolean[1][:n],
        )
    else:
        g = group[idx]
        e = exec_times[idx]
        a = arrivals[idx]
        new_seg = np.empty(n, dtype=bool)
        seg_id = np.empty(n, dtype=np.int64)
        cs = np.empty(n, dtype=np.float64)
        tmp = np.empty(n, dtype=np.float64)
        key = np.empty(n, dtype=np.float64)
        buffers = None

    # Segment bookkeeping: seg_id increments at each group change.
    new_seg[0] = True
    np.not_equal(g[1:], g[:-1], out=new_seg[1:])
    np.cumsum(new_seg, out=seg_id)
    seg_id -= 1
    starts = np.flatnonzero(new_seg)

    # Row-local cumulative execution time: summing within rows only
    # keeps each row's rounding independent of its batch neighbours.
    np.cumsum(e.reshape(-1, row_block), axis=1, out=cs.reshape(-1, row_block))
    seg_offset = np.zeros(starts.shape[0], dtype=np.float64)
    interior = starts % row_block != 0  # segment starts inside a row
    seg_offset[interior] = cs[starts[interior] - 1]
    np.take(seg_offset, seg_id, out=tmp)
    cs -= tmp  # cs now holds cse, the within-segment cumulative sum

    # Segmented running maximum of (arrival − preceding work).
    np.subtract(cs, e, out=tmp)
    np.subtract(a, tmp, out=key)  # key = a − (cse − e)
    runmax = _segmented_running_max(key, seg_id, starts, buffers)

    cs += runmax  # finish times in sorted order
    finish = np.empty(n, dtype=np.float64)
    finish[idx] = cs
    return finish


def _segmented_finish_times_reference(
    group: IntArray,
    order_key: IntArray,
    arrivals: FloatArray,
    exec_times: FloatArray,
) -> FloatArray:
    """The pre-optimization kernel, kept verbatim as a reference.

    Used by the hot-loop benchmark (baseline stage timings) and by the
    precision regression tests: its unvalidated ``seg_id × BIG`` offset
    loses low bits when huge arrival spans meet many batch segments,
    which the production kernel now detects and avoids.
    """
    n = group.shape[0]
    idx = np.lexsort((np.arange(n), order_key, group))
    g = group[idx]
    e = exec_times[idx]
    a = arrivals[idx]

    new_seg = np.empty(n, dtype=bool)
    new_seg[0] = True
    np.not_equal(g[1:], g[:-1], out=new_seg[1:])
    seg_id = np.cumsum(new_seg) - 1
    starts = np.flatnonzero(new_seg)

    cs = np.cumsum(e)
    seg_offset = np.zeros(starts.shape[0], dtype=np.float64)
    seg_offset[1:] = cs[starts[1:] - 1]
    cse = cs - seg_offset[seg_id]

    key = a - (cse - e)
    span = float(key.max() - key.min()) if n > 1 else 0.0
    big = span + 1.0
    shifted = key + seg_id * big
    runmax = np.maximum.accumulate(shifted) - seg_id * big

    finish_sorted = cse + runmax
    finish = np.empty(n, dtype=np.float64)
    finish[idx] = finish_sorted
    return finish


class EvaluationCache:
    """Content-addressed chromosome → objectives cache.

    Keys are 128-bit BLAKE2b digests of a chromosome row's raw bytes
    (assignments then orders, both int64) — collisions are negligible
    (birthday bound ~2⁶⁴ entries) and the digest is ~250× smaller than
    the row itself.  Values are the exact ``(energy, utility)`` floats
    the kernel produced, so cache hits are bit-identical to fresh
    evaluations.  When *max_entries* is reached the store is cleared
    (O(1) bookkeeping beats LRU at GA access patterns, where the live
    working set is the current population).

    Counters come in two flavours: ``hits``/``misses``/``evictions``
    are lifetime totals (monotonic — observability deltas depend on
    that), while :attr:`stats` reports the current *window* — counts
    since the store was last emptied — so a long run's reported
    ``hit_rate`` reflects the live store instead of averaging over
    every pre-clear epoch (which silently inflated it before).
    """

    __slots__ = (
        "max_entries", "hits", "misses", "evictions",
        "window_hits", "window_misses", "_store",
    )

    def __init__(self, max_entries: int = DEFAULT_CACHE_SIZE) -> None:
        if max_entries < 1:
            raise ScheduleError(
                f"cache max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.window_hits = 0
        self.window_misses = 0
        self._store: dict[bytes, tuple[float, float]] = {}

    def __len__(self) -> int:
        return len(self._store)

    @staticmethod
    def key(assignment_row: IntArray, order_row: IntArray) -> bytes:
        """Digest of one chromosome row (dtype-stable: int64 bytes)."""
        h = blake2b(digest_size=16)
        h.update(assignment_row.tobytes())
        h.update(order_row.tobytes())
        return h.digest()

    def get(self, key: bytes) -> Optional[tuple[float, float]]:
        """Cached objectives for *key*, counting the hit/miss."""
        value = self._store.get(key)
        if value is None:
            self.misses += 1
            self.window_misses += 1
        else:
            self.hits += 1
            self.window_hits += 1
        return value

    def put(self, key: bytes, energy: float, utility: float) -> None:
        """Store one row's objectives, clearing first if at capacity."""
        if len(self._store) >= self.max_entries:
            self.evictions += len(self._store)
            self._store.clear()
            self.window_hits = 0
            self.window_misses = 0
        self._store[key] = (energy, utility)

    def clear(self) -> None:
        """Drop all entries.  Window counters restart with the empty
        store; lifetime ``hits``/``misses``/``evictions`` are kept."""
        self._store.clear()
        self.window_hits = 0
        self.window_misses = 0

    @property
    def stats(self) -> dict:
        """Current-window counters plus lifetime totals.

        ``hits``/``misses``/``hit_rate`` describe the window since the
        store last became empty (capacity clears included), so the
        reported rate always refers to entries that can actually hit;
        ``lifetime_hits``/``lifetime_misses`` carry the monotonic
        totals.
        """
        total = self.window_hits + self.window_misses
        return {
            "hits": self.window_hits,
            "misses": self.window_misses,
            "entries": len(self._store),
            "evictions": self.evictions,
            "hit_rate": (self.window_hits / total) if total else 0.0,
            "lifetime_hits": self.hits,
            "lifetime_misses": self.misses,
        }


class _BatchWorkspace:
    """Grow-only tiled buffers for batch evaluation.

    The tiled row-index / arrival / task-type / queue-offset arrays
    depend only on the batch size ``N``, and (being whole-row
    repetitions) a tiling for ``N`` rows is exactly the prefix of a
    tiling for more rows — so one grow-only allocation serves every
    batch size via views.
    """

    __slots__ = ("capacity", "_flat_rows", "_arrivals", "_task_types", "_offsets")

    def __init__(self) -> None:
        self.capacity = 0

    def views(
        self, evaluator: "ScheduleEvaluator", n_rows: int
    ) -> tuple[IntArray, FloatArray, IntArray, IntArray]:
        """(flat_rows, arrivals, task_types, queue_offsets) for *n_rows*."""
        if n_rows > self.capacity:
            capacity = max(n_rows, 2 * self.capacity)
            T = evaluator.num_tasks
            self._flat_rows = np.tile(evaluator._row_index, capacity)
            self._arrivals = np.tile(evaluator._arrivals, capacity)
            self._task_types = np.tile(evaluator._task_types, capacity)
            self._offsets = np.repeat(
                np.arange(capacity, dtype=np.int64) * evaluator._num_queues, T
            )
            self.capacity = capacity
        n = n_rows * evaluator.num_tasks
        return (
            self._flat_rows[:n],
            self._arrivals[:n],
            self._task_types[:n],
            self._offsets[:n],
        )


class ScheduleEvaluator:
    """Evaluates allocations for one (system, trace) pair.

    Precomputes the per-task ETC/EEC gathers and the stacked TUF table
    once; every evaluation afterwards is pure array work.

    Parameters
    ----------
    system:
        The :class:`~repro.model.system.SystemModel`; its task types
        must carry utility functions.
    trace:
        The workload :class:`~repro.workload.trace.Trace`.
    check_feasibility:
        Validate every evaluated allocation against the feasibility
        mask (cheap; disable only inside the GA, whose operators
        preserve feasibility by construction).
    queue_groups:
        Optional ``(num_machines,)`` int array mapping each machine
        index to a queue id.  Machines sharing a queue id contend for
        the same sequential queue while keeping their own ETC/EPC —
        this is how the DVFS extension models one physical processor
        exposed at several operating points.  Default: identity (every
        machine is its own queue).
    fault_hook:
        Optional zero-argument callable invoked at the top of every
        :meth:`evaluate` / :meth:`evaluate_batch` call.  Exists for the
        deterministic fault-injection harness
        (:mod:`repro.testing.faults`): tests install a hook that
        crashes or hangs at a chosen evaluation, exercising the
        checkpoint/resume and retry recovery paths.  ``None`` (the
        default) costs one predicate per call.
    cache_size:
        Upper bound on the chromosome evaluation cache (see
        :class:`EvaluationCache`); ``0`` disables caching.  Cached and
        fresh evaluations are bit-identical (the kernel is exact and
        batch-composition independent), so this only changes speed.
    kernel_method:
        ``"batch"`` (default) — the population-at-once kernel
        with queue-state reuse caching (see
        :mod:`repro.sim.batchkernel`); ``"fast"`` — composite-key radix
        sort + validated exact segmented maximum; ``"reference"`` — the
        pre-optimization lexsort/offset kernel, kept for benchmarking
        and precision regression tests; ``"batch-reference"`` — the
        batch kernel's scalar exactness oracle, run row by row.  The
        two batch modes are bit-identical to each other but differ in
        the last float bits from ``fast``/``reference`` (different,
        equally valid summation associations).
    obs:
        Optional :class:`~repro.obs.context.RunContext`.  When enabled,
        each batch evaluation records an ``evaluator.batch`` span and
        feeds the chromosome / cache-hit / cache-miss / eviction
        counters; when disabled (default), evaluation pays exactly one
        predicate — the kernel itself is untouched either way, so
        objectives are bit-identical with observability on or off.
    precomputed:
        Optional :class:`EvaluatorArrays` carrying the per-task
        ETC/EEC/feasibility gathers and the TUF table, e.g. zero-copy
        views of a shared-memory segment (see :mod:`repro.parallel`).
        When given, construction performs no array materialization and
        the system's task types need not carry utility functions (the
        table is taken as supplied).  Results are bit-identical to a
        self-computed evaluator because the arrays are the same values.
    """

    def __init__(
        self,
        system: SystemModel,
        trace: Trace,
        check_feasibility: bool = True,
        queue_groups: Optional[IntArray] = None,
        fault_hook: Optional[Callable[[], None]] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        kernel_method: str = DEFAULT_KERNEL_METHOD,
        obs: Optional["RunContext"] = None,
        precomputed: Optional[EvaluatorArrays] = None,
    ) -> None:
        trace.validate_against(system.num_task_types)
        if kernel_method not in (
            "fast", "reference", "batch", "batch-reference"
        ):
            raise ScheduleError(
                "kernel_method must be one of 'fast', 'reference', "
                f"'batch', 'batch-reference'; got {kernel_method!r}"
            )
        if cache_size < 0:
            raise ScheduleError(f"cache_size must be >= 0, got {cache_size}")
        self.system = system
        self.trace = trace
        self.check_feasibility = check_feasibility
        self.fault_hook = fault_hook
        self.kernel_method = kernel_method
        if obs is None:
            obs = NULL_CONTEXT
        self.obs = obs
        # Batch modes replace the chromosome cache with the kernel's
        # queue-state tables (finer-grained reuse; hashing whole rows
        # on top would cost more than the duplicate rows it saves).
        use_chromosome_cache = cache_size > 0 and kernel_method in (
            "fast", "reference"
        )
        self.cache = EvaluationCache(cache_size) if use_chromosome_cache \
            else None
        self._workspace = _BatchWorkspace()
        self._scratch = _KernelScratch()
        self._packed32: Optional[np.ndarray] = None
        self.num_tasks = trace.num_tasks
        self.num_machines = system.num_machines

        self._task_types = trace.task_types
        self._arrivals = trace.arrival_times
        if precomputed is not None:
            expected = (self.num_tasks, self.num_machines)
            if precomputed.etc_rows.shape != expected:
                raise ScheduleError(
                    f"precomputed etc_rows shape {precomputed.etc_rows.shape} "
                    f"does not match (tasks, machines) = {expected}"
                )
            self._etc_rows = precomputed.etc_rows
            self._eec_rows = precomputed.eec_rows
            self._feasible_rows = precomputed.feasible_rows
            self._tuf_table = precomputed.tuf_table
        else:
            # Per-task rows of the machine-instance-expanded matrices.
            self._etc_rows = system.etc_task_machine[self._task_types]
            self._eec_rows = system.eec_task_machine[self._task_types]
            self._feasible_rows = system.feasible_task_machine[self._task_types]
            self._tuf_table = TUFTable.from_system(system)
        # Flat views/copies for np.take-with-out gathers on the batch
        # path (a ravel of a C-contiguous array — the shared-view case —
        # is zero-copy).
        self._etc_flat = np.ascontiguousarray(self._etc_rows).reshape(-1)
        self._eec_flat = np.ascontiguousarray(self._eec_rows).reshape(-1)
        self._row_index = np.arange(self.num_tasks)
        if queue_groups is None:
            self._queue_groups = np.arange(self.num_machines, dtype=np.int64)
            self._num_queues = self.num_machines
        else:
            qg = np.asarray(queue_groups, dtype=np.int64)
            if qg.shape != (self.num_machines,):
                raise ScheduleError(
                    f"queue_groups must have shape ({self.num_machines},); "
                    f"got {qg.shape}"
                )
            if np.any(qg < 0):
                raise ScheduleError("queue ids must be >= 0")
            self._queue_groups = qg.copy()
            self._num_queues = int(qg.max()) + 1
        self._batch_kernel = None
        if kernel_method == "batch":
            # cache_size is the entry budget; tables hold up to half
            # their slots, so the slot count doubles it (cache_size=0
            # is the validated caching-off configuration).
            slots_log2 = (
                max(8, (2 * cache_size - 1).bit_length())
                if cache_size else 8
            )
            self._batch_kernel = BatchQueueKernel(
                self,
                use_cache=cache_size > 0,
                queue_slots_log2=min(28, slots_log2),
            )

    @property
    def tuf_table(self) -> TUFTable:
        """The stacked TUF table (shared with heuristics)."""
        return self._tuf_table

    # -- single allocation -------------------------------------------------

    def evaluate(self, allocation: ResourceAllocation) -> EvaluationResult:
        """Simulate one allocation and return the full result."""
        if self.fault_hook is not None:
            self.fault_hook()
        if allocation.num_tasks != self.num_tasks:
            raise ScheduleError(
                f"allocation covers {allocation.num_tasks} tasks; trace has "
                f"{self.num_tasks}"
            )
        assignment = allocation.machine_assignment
        if int(assignment.max()) >= self.num_machines:
            raise ScheduleError(
                f"allocation references machine {int(assignment.max())}; system "
                f"has {self.num_machines}"
            )
        if self.check_feasibility:
            ok = self._feasible_rows[self._row_index, assignment]
            if not np.all(ok):
                bad = int(np.flatnonzero(~ok)[0])
                raise ScheduleError(
                    f"task {bad} assigned to machine {int(assignment[bad])}, "
                    "which cannot execute its task type"
                )
        exec_times = self._etc_rows[self._row_index, assignment]
        if self.kernel_method in ("batch", "batch-reference"):
            # Batch fold semantics: totals are per-queue left folds
            # combined over ascending queue id, so evaluate() agrees
            # bit-for-bit with evaluate_batch() in these modes.
            energy, utility, finish = batch_reference_row(
                self, assignment, allocation.scheduling_order
            )
            start = finish - exec_times
            elapsed = finish - self._arrivals
            utilities = self._tuf_table.evaluate(self._task_types, elapsed)
            energies = self._eec_rows[self._row_index, assignment]
            return EvaluationResult(
                energy=energy,
                utility=utility,
                start_times=start,
                completion_times=finish,
                task_utilities=utilities,
                task_energies=energies,
            )
        finish = self._finish_times(
            self._queue_groups[assignment],
            allocation.scheduling_order,
            self._arrivals,
            exec_times,
        )
        start = finish - exec_times
        elapsed = finish - self._arrivals
        utilities = self._tuf_table.evaluate(self._task_types, elapsed)
        energies = self._eec_rows[self._row_index, assignment]
        return EvaluationResult(
            energy=float(energies.sum()),
            utility=float(utilities.sum()),
            start_times=start,
            completion_times=finish,
            task_utilities=utilities,
            task_energies=energies,
        )

    def objectives(self, allocation: ResourceAllocation) -> tuple[float, float]:
        """``(energy, utility)`` of one allocation."""
        return self.evaluate(allocation).objectives

    def _finish_times(
        self,
        group: IntArray,
        order_key: IntArray,
        arrivals: FloatArray,
        exec_times: FloatArray,
        row_block: Optional[int] = None,
    ) -> FloatArray:
        """Dispatch to the configured segmented kernel."""
        if self.kernel_method == "fast":
            return _segmented_finish_times(
                group, order_key, arrivals, exec_times, row_block,
                self._scratch,
            )
        return _segmented_finish_times_reference(
            group, order_key, arrivals, exec_times
        )

    @property
    def cache_stats(self) -> dict:
        """Evaluation-cache counters (all zero when caching is off).

        In ``kernel_method="batch"`` the counters come from the batch
        kernel's queue-state table instead of the per-chromosome
        cache, and include element-level ``reuse_rate``.
        """
        if self._batch_kernel is not None:
            return self._batch_kernel.stats
        if self.cache is None:
            return {"hits": 0, "misses": 0, "entries": 0, "evictions": 0,
                    "hit_rate": 0.0}
        return self.cache.stats

    def clear_cache(self) -> None:
        """Drop all cached evaluations (no-op when caching is off)."""
        if self.cache is not None:
            self.cache.clear()
        if self._batch_kernel is not None:
            self._batch_kernel.clear()

    # -- population batch ----------------------------------------------------

    def evaluate_batch(
        self, assignments: IntArray, orders: IntArray
    ) -> tuple[FloatArray, FloatArray]:
        """Objectives for a whole population in one vectorized pass.

        Parameters
        ----------
        assignments, orders:
            ``(N, T)`` arrays: one chromosome per row.

        Returns
        -------
        ``(energies, utilities)`` — each ``(N,)`` float arrays.

        Implementation: rows are concatenated with machine labels offset
        by ``row × num_queues`` so one segmented pass covers every
        queue of every chromosome simultaneously.  When the evaluation
        cache is enabled, rows whose exact bytes were evaluated before
        are answered from the cache and only the genuinely new rows hit
        the kernel — bit-identical either way, because the kernel's
        per-row results do not depend on the rest of the batch.
        """
        obs = self.obs
        if not obs.enabled:
            return self._evaluate_batch_impl(assignments, orders)
        kernel = self._batch_kernel
        cache = self.cache
        hits0, misses0 = (cache.hits, cache.misses) if cache else (0, 0)
        evict0 = cache.evictions if cache else 0
        t0 = time.perf_counter()
        result = self._evaluate_batch_impl(assignments, orders)
        seconds = time.perf_counter() - t0
        rows = int(result[0].shape[0])
        metrics = obs.metrics
        if kernel is not None:
            # Batch kernel: reuse is counted per machine queue, not per
            # chromosome row, so report the kernel's own counters.
            batch = kernel.last_batch
            hits = int(batch.get("queue_hits", 0))
            misses = int(batch.get("queue_misses", 0))
            reuse_rate = float(batch.get("reuse_rate", 0.0))
            obs.record_span(
                "evaluator.batch", seconds, rows=rows, cache_hits=hits,
                cache_misses=misses, reuse_rate=reuse_rate,
                kernel=self.kernel_method,
            )
            metrics.gauge(
                "evaluator_reuse_rate",
                help="fraction of queue elements answered from cached "
                "queue state in the latest batch",
            ).set(reuse_rate)
            metrics.counter(
                "evaluator_queue_states_reused_total",
                help="queue elements covered by cached queue state",
            ).inc(int(batch.get("elements_reused", 0)))
        else:
            hits = (cache.hits - hits0) if cache else 0
            misses = (cache.misses - misses0) if cache else rows
            obs.record_span(
                "evaluator.batch", seconds, rows=rows, cache_hits=hits,
                cache_misses=misses,
            )
        metrics.counter(
            "evaluator_chromosomes_total",
            help="chromosome rows evaluated (cache hits included)",
        ).inc(rows)
        metrics.counter(
            "evaluator_cache_hits_total",
            help="batch rows answered from the evaluation cache",
        ).inc(hits)
        metrics.counter(
            "evaluator_cache_misses_total",
            help="batch rows that hit the segmented kernel",
        ).inc(misses)
        if cache and cache.evictions != evict0:
            metrics.counter(
                "evaluator_cache_evictions_total",
                help="cached entries dropped by capacity clears",
            ).inc(cache.evictions - evict0)
        metrics.histogram(
            "evaluator_batch_seconds",
            help="wall-clock per evaluate_batch call",
            unit="seconds",
        ).observe(seconds)
        return result

    def _evaluate_batch_impl(
        self, assignments: IntArray, orders: IntArray
    ) -> tuple[FloatArray, FloatArray]:
        """The uninstrumented batch path (see :meth:`evaluate_batch`)."""
        if self.fault_hook is not None:
            self.fault_hook()
        assignments = np.asarray(assignments, dtype=np.int64)
        orders = np.asarray(orders, dtype=np.int64)
        if assignments.ndim != 2 or assignments.shape != orders.shape:
            raise ScheduleError(
                f"batch arrays must be equal-shape 2-D; got {assignments.shape} "
                f"and {orders.shape}"
            )
        N, T = assignments.shape
        if T != self.num_tasks:
            raise ScheduleError(
                f"batch covers {T} tasks per chromosome; trace has {self.num_tasks}"
            )
        if N == 0:
            return (np.empty(0), np.empty(0))
        if int(assignments.max()) >= self.num_machines or int(assignments.min()) < 0:
            raise ScheduleError("batch references machine indices out of range")
        if self.check_feasibility:
            ok = self._feasible_rows[
                np.broadcast_to(self._row_index, (N, T)), assignments
            ]
            if not np.all(ok):
                row, col = np.argwhere(~ok)[0]
                raise ScheduleError(
                    f"chromosome {int(row)}: task {int(col)} assigned to an "
                    "infeasible machine"
                )
        if self.kernel_method == "batch":
            return self._batch_kernel.evaluate_population(assignments, orders)
        if self.kernel_method == "batch-reference":
            energies = np.empty(N, dtype=np.float64)
            utilities = np.empty(N, dtype=np.float64)
            for i in range(N):
                energies[i], utilities[i], _ = batch_reference_row(
                    self, assignments[i], orders[i]
                )
            return energies, utilities
        cache = self.cache
        if cache is None:
            return self._evaluate_batch_kernel(assignments, orders)

        energies = np.empty(N, dtype=np.float64)
        utilities = np.empty(N, dtype=np.float64)
        # Digest fast path: when both gene arrays fit int32 (assignments
        # always do — they are machine indices — and order keys start as
        # permutation values), hash half the bytes per row.  The int32
        # and int64 encodings have different lengths, so their digests
        # can never alias each other.
        if (
            self.num_machines <= 2**31
            and -(2**31) <= int(orders.min())
            and int(orders.max()) < 2**31
        ):
            if self._packed32 is None or self._packed32.shape[0] < N:
                self._packed32 = np.empty((N, 2 * T), dtype=np.int32)
            packed = self._packed32[:N]
            packed[:, :T] = assignments
            packed[:, T:] = orders
            keys = [
                blake2b(packed[i].data, digest_size=16).digest()
                for i in range(N)
            ]
        else:
            keys = [
                EvaluationCache.key(assignments[i], orders[i])
                for i in range(N)
            ]
        miss_rows: list[int] = []
        for i, key in enumerate(keys):  # dict probes; loop over N, not N×T
            hit = cache.get(key)
            if hit is None:
                miss_rows.append(i)
            else:
                energies[i], utilities[i] = hit
        if len(miss_rows) == N:  # nothing cached: skip the row gathers
            energies, utilities = self._evaluate_batch_kernel(
                assignments, orders
            )
            for i, key in enumerate(keys):
                cache.put(key, float(energies[i]), float(utilities[i]))
        elif miss_rows:
            miss = np.array(miss_rows, dtype=np.int64)
            miss_e, miss_u = self._evaluate_batch_kernel(
                assignments[miss], orders[miss]
            )
            energies[miss] = miss_e
            utilities[miss] = miss_u
            for j, i in enumerate(miss_rows):
                cache.put(keys[i], float(miss_e[j]), float(miss_u[j]))
        return energies, utilities

    def _evaluate_batch_kernel(
        self, assignments: IntArray, orders: IntArray
    ) -> tuple[FloatArray, FloatArray]:
        """One segmented-kernel pass over already-validated rows."""
        N, T = assignments.shape
        n = N * T
        flat_rows, arrivals, task_types, chrom_offset = self._workspace.views(
            self, N
        )
        scratch = self._scratch
        scratch.ensure(n)
        flat_assign = assignments.ravel()
        flat_order = orders.ravel()
        # (task row, machine) → flat ETC/EEC index, reused for both.
        lin = scratch.i64[2][:n]
        np.multiply(flat_rows, self.num_machines, out=lin)
        lin += flat_assign
        exec_times = np.take(self._etc_flat, lin, out=scratch.f64[7][:n])
        group = np.take(self._queue_groups, flat_assign, out=scratch.i64[3][:n])
        group += chrom_offset

        finish = self._finish_times(
            group, flat_order, arrivals, exec_times, row_block=T
        )
        np.subtract(finish, arrivals, out=finish)  # now elapsed times
        utilities = self._tuf_table.evaluate(task_types, finish).reshape(N, T)
        # exec_times (f64[7]) is dead after the kernel; reuse it for EEC.
        energies = np.take(self._eec_flat, lin, out=scratch.f64[7][:n])
        return energies.reshape(N, T).sum(axis=1), utilities.sum(axis=1)
