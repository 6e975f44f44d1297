"""Batch TUF evaluation across heterogeneous task types.

The simulator must evaluate, per chromosome, ``Υ_τ(completion −
arrival)`` for thousands of tasks whose types carry *different*
compiled TUFs.  :class:`TUFTable` stacks every task type's breakpoint
table into padded 2-D arrays so one evaluation is a handful of fancy
gathers — no Python-level loop over tasks (see the HPC guide's
"vectorizing for loops").

Layout: with ``K`` = max segments over all types, the table holds
``(num_types, K)`` arrays ``breakpoints``, ``kinds``, ``start_values``,
``rates``, ``durations``; rows are padded with repeats of the last real
segment so the search below never indexes padding with smaller times.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.errors import UtilityFunctionError
from repro.types import FloatArray, IntArray
from repro.utility.tuf import SEGMENT_KIND, TimeUtilityFunction
from repro.utility.intervals import DecayShape

__all__ = ["TUFTable"]

_KIND_EXP = SEGMENT_KIND[DecayShape.EXPONENTIAL]
_KIND_LIN = SEGMENT_KIND[DecayShape.LINEAR]


@dataclass(frozen=True)
class TUFTable:
    """Stacked compiled TUFs for all task types of a system."""

    breakpoints: FloatArray  # (num_types, K) segment start times
    kinds: np.ndarray  # (num_types, K) int codes
    start_values: FloatArray  # (num_types, K)
    rates: FloatArray  # (num_types, K)
    end_times: FloatArray  # (num_types,) time after which tail applies
    tail_values: FloatArray  # (num_types,)
    max_utilities: FloatArray  # (num_types,) value at elapsed == 0

    @classmethod
    def from_functions(
        cls, functions: Sequence[TimeUtilityFunction]
    ) -> "TUFTable":
        """Stack the compiled forms of *functions* (one per task type)."""
        if not functions:
            raise UtilityFunctionError("TUFTable requires >= 1 function")
        compiled = [f.compiled for f in functions]
        K = max(len(c.breakpoints) for c in compiled)
        n = len(compiled)
        breakpoints = np.empty((n, K), dtype=np.float64)
        kinds = np.empty((n, K), dtype=np.int64)
        start_values = np.empty((n, K), dtype=np.float64)
        rates = np.empty((n, K), dtype=np.float64)
        end_times = np.empty(n, dtype=np.float64)
        tail_values = np.empty(n, dtype=np.float64)
        max_utils = np.empty(n, dtype=np.float64)
        for i, c in enumerate(compiled):
            k = len(c.breakpoints)
            breakpoints[i, :k] = c.breakpoints
            kinds[i, :k] = c.kinds
            start_values[i, :k] = c.start_values
            rates[i, :k] = c.rates
            if k < K:
                # Pad with +inf start times: the segment search below can
                # never select padding because elapsed < inf always puts
                # the insertion point before it.
                breakpoints[i, k:] = np.inf
                kinds[i, k:] = 0
                start_values[i, k:] = c.tail_value
                rates[i, k:] = 0.0
            end_times[i] = c.end_time
            tail_values[i] = c.tail_value
            max_utils[i] = c.start_values[0]
        for arr in (breakpoints, kinds, start_values, rates, end_times,
                    tail_values, max_utils):
            arr.setflags(write=False)
        return cls(
            breakpoints=breakpoints,
            kinds=kinds,
            start_values=start_values,
            rates=rates,
            end_times=end_times,
            tail_values=tail_values,
            max_utilities=max_utils,
        )

    @classmethod
    def from_system(cls, system) -> "TUFTable":
        """Build the table from a system whose task types carry TUFs."""
        functions = []
        for tt in system.task_types:
            if tt.utility_function is None:
                raise UtilityFunctionError(
                    f"task type {tt.name!r} has no utility function; call "
                    "SystemModel.with_utility_functions first"
                )
            functions.append(tt.utility_function)
        return cls.from_functions(functions)

    @property
    def num_types(self) -> int:
        """Number of task types in the table."""
        return self.breakpoints.shape[0]

    @cached_property
    def tail_floors(self) -> FloatArray:
        """Per-type lower clamp: the tail value when positive, else 0."""
        floors = np.where(self.tail_values > 0, self.tail_values, 0.0)
        floors.setflags(write=False)
        return floors

    @cached_property
    def _fast(self) -> tuple:
        """Evaluation-ready layout with the tail folded in as a segment.

        Appending a constant segment ``(end_time, tail_value)`` after
        each type's real segments makes the tail a normal search result
        — the separate ``t >= end_time`` overwrite disappears.  The
        returned tuple holds per-column breakpoint arrays (for the
        additive segment search; all-inf columns dropped) and flattened
        parameter arrays indexed by ``type × Ke + segment``.
        """
        K = self.breakpoints.shape[1]
        n = self.num_types
        Ke = K + 1
        bp = np.full((n, Ke), np.inf)
        kd = np.full((n, Ke), -1, dtype=np.int64)  # -1 = constant
        sv = np.empty((n, Ke))
        rt = np.zeros((n, Ke))
        for i in range(n):
            pad = np.flatnonzero(np.isinf(self.breakpoints[i]))
            k = int(pad[0]) if pad.size else K
            bp[i, :k] = self.breakpoints[i, :k]
            kd[i, :k] = self.kinds[i, :k]
            sv[i, :k] = self.start_values[i, :k]
            rt[i, :k] = self.rates[i, :k]
            bp[i, k] = self.end_times[i]
            sv[i, k:] = self.tail_values[i]
        cols = []
        for k in range(1, Ke):  # breakpoints are nondecreasing per row,
            col = np.ascontiguousarray(bp[:, k])  # so inf columns trail
            if np.isinf(col).all():
                break
            cols.append(col)
        return (tuple(cols), Ke, bp.ravel(), sv.ravel(), rt.ravel(),
                kd.ravel().astype(np.int8))

    def evaluate(
        self, task_types: IntArray, elapsed: FloatArray, scratch=None
    ) -> FloatArray:
        """Utility for each task given its type and elapsed completion time.

        Parameters
        ----------
        task_types:
            ``(T,)`` int array of task-type indices.
        elapsed:
            ``(T,)`` float array of ``completion − arrival`` seconds.
        scratch:
            Optional :class:`~repro.sim.batchkernel.KernelScratch` (the
            queue fold's): the work buffers and the result come from
            it, so the result is valid until the next call on that
            scratch, and *elapsed* is overwritten (it is the work
            buffer).  ``None`` allocates fresh buffers and leaves
            *elapsed* alone.

        Returns
        -------
        ``(T,)`` float array of utilities.
        """
        task_types = np.asarray(task_types, dtype=np.int64)
        elapsed = np.asarray(elapsed, dtype=np.float64)
        if task_types.shape != elapsed.shape:
            raise UtilityFunctionError(
                f"task_types shape {task_types.shape} does not match elapsed "
                f"shape {elapsed.shape}"
            )
        shape = elapsed.shape
        task_types = task_types.reshape(-1)
        n = task_types.shape[0]
        if scratch is None:
            from repro.sim.batchkernel import KernelScratch

            # The gathers below clip; only the kernel's callers (whose
            # trace types are validated) skip this range check.
            if n and not (0 <= task_types.min()
                          and task_types.max() < self.num_types):
                raise UtilityFunctionError(
                    f"task types must lie in [0, {self.num_types})"
                )
            scratch = KernelScratch()
            # ``t`` is then this call's own buffer, never the caller's.
            t = np.maximum(elapsed.reshape(-1), 0.0)
        else:
            t = np.maximum(elapsed.reshape(-1), 0.0,
                           out=elapsed.reshape(-1))
        # ``t`` becomes rate·dt in place below.
        gathered = scratch.get("tuf_gather", n, np.float64)
        below = scratch.get("tuf_mask", n, bool)
        cols, Ke, bp_flat, sv_flat, rt_flat, kd_flat = self._fast
        # Flat table index = type × Ke + segment, the segment being the
        # count of breakpoints <= t, accumulated in place one
        # (num_types,)-gathered column at a time — no (n, K) temporary.
        # The folded-in tail segment makes end-of-life a search result.
        # Gathers pass mode="clip" (unbuffered): every index is a valid
        # type or table entry by construction.
        lin = np.multiply(task_types, Ke, out=scratch.get("tuf_lin", n))
        for col in cols:
            col.take(task_types, out=gathered, mode="clip")
            lin += np.less_equal(gathered, t, out=below)
        rdt = np.subtract(t, bp_flat.take(lin, out=gathered, mode="clip"),
                          out=t)
        np.multiply(rt_flat.take(lin, out=gathered, mode="clip"), rdt,
                    out=rdt)
        kind = kd_flat.take(lin, out=scratch.get("tuf_kind", n, np.int8),
                            mode="clip")
        value = sv_flat.take(lin, out=scratch.get("tuf_value", n,
                                                  np.float64),
                             mode="clip")
        # Constant segments keep v0; linear ones take v0 − rate·dt and
        # exponential ones v0·exp(−rate·dt).  No boolean gathers: the
        # linear formula is a masked subtract, and exp runs over the
        # whole buffer in place (one vector pass beats a masked one)
        # with every non-exponential factor then set to exactly 1.0.
        np.subtract(value, rdt, out=value,
                    where=np.equal(kind, _KIND_LIN, out=below))
        not_exp = np.not_equal(kind, _KIND_EXP, out=below)
        if not not_exp.all():
            np.negative(rdt, out=rdt)
            np.exp(rdt, out=rdt)
            np.putmask(rdt, not_exp, 1.0)
            value *= rdt
        floors = self.tail_floors.take(task_types, out=gathered, mode="clip")
        np.maximum(value, floors, out=value)
        return value.reshape(shape)

    def utility_upper_bound(self, task_types: IntArray) -> float:
        """Sum of maximum utilities — the unreachable ideal ``U``."""
        return float(self.max_utilities[np.asarray(task_types, dtype=np.int64)].sum())
