"""Dataset publication and zero-copy reconstruction descriptors.

The bridge between :class:`~repro.experiments.datasets.DatasetBundle`
and the shared-memory transport of :mod:`repro.parallel.shm`:

* :func:`dataset_arrays` names the read-only array payload of an
  experiment — the per-task ETC/EEC/feasibility gathers the evaluator
  needs, the trace columns (task types, arrivals), and the stacked TUF
  parameter tables.  These are exactly the arrays the evaluator would
  compute for itself, produced by the same expressions, so shared and
  self-computed evaluators are bit-identical.
* :func:`publish_dataset` copies that payload into one shared segment
  (or, on platforms without shared memory / under
  ``transport="pickle"``, freezes it inline) and returns a
  :class:`PublishedDataset` whose :class:`SharedDatasetHandle` is the
  tiny picklable descriptor pool workers receive **once** via their
  initializer.
* :meth:`SharedDatasetHandle.restore` rebuilds, worker-side, a
  :class:`RestoredDataset`: a full ``DatasetBundle`` whose trace
  columns are views of the shared segment, plus
  :meth:`~RestoredDataset.make_evaluator`, which constructs
  :class:`~repro.sim.evaluator.ScheduleEvaluator` from the shared
  views with no array materialization.  Restores are memoized per
  process, so each worker pays the attach + structural rebuild once
  per experiment no matter how many grid cells it executes.

Only the small *structure* of the system (machine/task type metadata,
type-level matrices — a few kilobytes) rides in the handle itself; the
O(tasks × machines) arrays never cross the pipe.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

import numpy as np

from repro.errors import ParallelExecutionError
from repro.model.serialization import system_from_dict, system_to_dict
from repro.parallel import shm as shm_transport
from repro.parallel.shm import ArrayPackSpec, SharedArrayPack
from repro.sim.evaluator import EvaluatorArrays, ScheduleEvaluator
from repro.utility.vectorized import TUFTable
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.datasets import DatasetBundle
    from repro.obs.context import RunContext

__all__ = [
    "TRANSPORTS",
    "dataset_arrays",
    "publish_dataset",
    "PublishedDataset",
    "SharedDatasetHandle",
    "RestoredDataset",
    "restored_count",
]

TRANSPORTS = ("auto", "shm", "pickle")

#: TUF table fields, in constructor order (shared-segment keys get a
#: ``tuf_`` prefix).
_TUF_FIELDS = (
    "breakpoints",
    "kinds",
    "start_values",
    "rates",
    "end_times",
    "tail_values",
    "max_utilities",
)


def dataset_arrays(bundle: "DatasetBundle") -> dict[str, np.ndarray]:
    """The read-only array payload of *bundle*, keyed for the segment.

    Gathered by :meth:`~repro.sim.evaluator.EvaluatorArrays.gather`,
    as :class:`~repro.sim.evaluator.ScheduleEvaluator` gathers its own,
    so evaluators built from these arrays are bit-identical to
    self-computed ones.
    """
    trace = bundle.trace
    gathered = EvaluatorArrays.gather(bundle.system, trace.task_types)
    arrays: dict[str, np.ndarray] = {
        "trace_task_types": trace.task_types,
        "trace_arrivals": trace.arrival_times,
        "etc_rows": gathered.etc_rows,
        "eec_rows": gathered.eec_rows,
        "feasible_rows": gathered.feasible_rows,
    }
    for name in _TUF_FIELDS:
        arrays[f"tuf_{name}"] = getattr(gathered.tuf_table, name)
    return arrays


@dataclass(frozen=True)
class SharedDatasetHandle:
    """The per-experiment descriptor shipped to pool workers (picklable).

    Exactly one of ``segment`` (shared-memory transport) or ``inline``
    (pickle fallback) is set.  Either way the handle is shipped **once
    per worker** through the pool initializer; per-cell submissions
    carry only the ``dataset_id`` string, so per-submission payload is
    O(1) in the dataset size.
    """

    dataset_id: str
    meta: dict = field(repr=False)
    segment: Optional[ArrayPackSpec] = None
    inline: Optional[dict] = field(default=None, repr=False)

    @property
    def transport(self) -> str:
        """``"shm"`` or ``"pickle"``."""
        return "pickle" if self.segment is None else "shm"

    def restore(self) -> "RestoredDataset":
        """The reconstructed dataset (memoized per process)."""
        cached = _RESTORED.get(self.dataset_id)
        if cached is not None:
            return cached
        if self.segment is not None:
            views: Mapping[str, np.ndarray] = shm_transport.attach(self.segment)
        else:
            if self.inline is None:
                raise ParallelExecutionError(
                    f"handle {self.dataset_id!r} carries neither a segment "
                    "nor inline arrays"
                )
            views = self.inline
        restored = RestoredDataset._build(self, views)
        _RESTORED[self.dataset_id] = restored
        return restored


#: Per-process memo of restored datasets (worker-side attach-once).
_RESTORED: dict[str, "RestoredDataset"] = {}


def restored_count() -> int:
    """How many distinct datasets this process has restored (tests)."""
    return len(_RESTORED)


class RestoredDataset:
    """A worker-side dataset reconstructed from a handle.

    Attributes
    ----------
    handle:
        The originating :class:`SharedDatasetHandle`.
    bundle:
        A full :class:`~repro.experiments.datasets.DatasetBundle`; its
        trace columns are zero-copy views of the shared segment (the
        small system structure is rebuilt from the handle metadata).
    evaluator_arrays:
        Zero-copy :class:`~repro.sim.evaluator.EvaluatorArrays` views.
    """

    def __init__(self, handle, bundle, evaluator_arrays) -> None:
        self.handle = handle
        self.bundle = bundle
        self.evaluator_arrays = evaluator_arrays

    @classmethod
    def _build(
        cls, handle: SharedDatasetHandle, views: Mapping[str, np.ndarray]
    ) -> "RestoredDataset":
        from repro.experiments.datasets import DatasetBundle

        meta = handle.meta
        system = system_from_dict(meta["system"])
        trace = Trace(
            task_types=views["trace_task_types"],
            arrival_times=views["trace_arrivals"],
            window=meta["window"],
        )
        bundle = DatasetBundle(
            name=meta["name"],
            system=system,
            trace=trace,
            horizon_seconds=meta["horizon_seconds"],
            seed=meta["seed"],
        )
        table = TUFTable(
            **{name: views[f"tuf_{name}"] for name in _TUF_FIELDS}
        )
        arrays = EvaluatorArrays(
            etc_rows=views["etc_rows"],
            eec_rows=views["eec_rows"],
            feasible_rows=views["feasible_rows"],
            tuf_table=table,
        )
        return cls(handle, bundle, arrays)

    def make_evaluator(self, **kwargs) -> ScheduleEvaluator:
        """A :class:`ScheduleEvaluator` over the shared views.

        Keyword arguments are forwarded (``check_feasibility``,
        ``fault_hook``, ``cache_size``, ...); the per-task gathers and
        TUF table come from the shared segment, so construction does no
        array work.
        """
        return ScheduleEvaluator(
            self.bundle.system,
            self.bundle.trace,
            precomputed=self.evaluator_arrays,
            **kwargs,
        )


class PublishedDataset:
    """Coordinator-side owner of one published dataset.

    Owns the shared segment (when using shm transport) and exposes the
    worker-facing :class:`SharedDatasetHandle`.  Context-manager
    protocol and :meth:`close` release the segment; closing is
    idempotent and safe after workers have detached.
    """

    def __init__(
        self,
        handle: SharedDatasetHandle,
        pack: Optional[SharedArrayPack],
        nbytes: int,
    ) -> None:
        self.handle = handle
        self._pack = pack
        self.nbytes = nbytes

    @property
    def transport(self) -> str:
        """``"shm"`` or ``"pickle"``."""
        return self.handle.transport

    def close(self) -> None:
        """Unlink the shared segment (no-op for pickle transport)."""
        _RESTORED.pop(self.handle.dataset_id, None)
        if self._pack is not None:
            self._pack.close()

    def __enter__(self) -> "PublishedDataset":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def publish_dataset(
    bundle: "DatasetBundle",
    transport: str = "auto",
    obs: Optional["RunContext"] = None,
) -> PublishedDataset:
    """Publish *bundle*'s arrays for zero-copy worker attachment.

    Parameters
    ----------
    bundle:
        The dataset to publish.
    transport:
        ``"auto"`` (default) — shared memory when available, else
        pickle; ``"shm"`` — require shared memory (raises
        :class:`~repro.parallel.shm.SharedMemoryUnavailable` when the
        platform cannot serve it); ``"pickle"`` — force the inline
        fallback (identical results, O(dataset) once per worker).
    obs:
        Optional :class:`~repro.obs.context.RunContext`; records the
        ``parallel_segment_bytes`` gauge and a ``parallel.published``
        event.
    """
    if transport not in TRANSPORTS:
        raise ParallelExecutionError(
            f"unknown transport {transport!r}; have {TRANSPORTS}"
        )
    arrays = dataset_arrays(bundle)
    meta = {
        "name": bundle.name,
        "horizon_seconds": bundle.horizon_seconds,
        "seed": bundle.seed,
        "window": bundle.trace.window,
        "system": system_to_dict(bundle.system),
    }
    dataset_id = f"{bundle.name}-{secrets.token_hex(4)}"
    nbytes = int(sum(a.nbytes for a in arrays.values()))

    pack: Optional[SharedArrayPack] = None
    if transport in ("auto", "shm"):
        try:
            pack = shm_transport.publish(arrays)
        except shm_transport.SharedMemoryUnavailable:
            if transport == "shm":
                raise
    if pack is not None:
        handle = SharedDatasetHandle(
            dataset_id=dataset_id, meta=meta, segment=pack.spec
        )
    else:
        inline = {}
        for key, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            inline[key] = arr
        handle = SharedDatasetHandle(
            dataset_id=dataset_id, meta=meta, inline=inline
        )
    published = PublishedDataset(handle, pack, nbytes)
    if obs is not None and obs.enabled:
        obs.metrics.gauge(
            "parallel_segment_bytes",
            help="read-only dataset bytes published for zero-copy attach",
            unit="bytes",
        ).set(float(nbytes))
        obs.event(
            "parallel.published",
            dataset=bundle.name,
            transport=published.transport,
            bytes=nbytes,
            arrays=len(arrays),
        )
    return published
