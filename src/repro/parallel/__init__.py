"""Zero-copy shared-memory parallel execution for experiment grids.

Layered bottom-up:

* :mod:`repro.parallel.shm` — packed shared-memory segments, attach
  registries, leak detection with creator-pid liveness, the dead-
  coordinator janitor sweep, lifecycle hooks.
* :mod:`repro.parallel.descriptors` — publishing a
  :class:`~repro.experiments.datasets.DatasetBundle` once per
  experiment and reconstructing zero-copy evaluators worker-side from
  a tiny picklable handle (with an inline pickle fallback for
  platforms without shared memory).
* :mod:`repro.parallel.engine` — the persistent worker pool and the
  retry/collect loop (heap-scheduled backoff, per-attempt timeouts
  with cell leases, pool-break supervision with victim attribution and
  poison-cell quarantine, coordinator-side observability).
* :mod:`repro.parallel.manifest` — the durable grid manifest: an
  append-only JSONL journal of cell lifecycle transitions with total
  (torn-tail tolerant) replay, plus the picklable worker heartbeat
  appender.
* :mod:`repro.parallel.resultstore` — content-addressed per-cell
  result artifacts keyed by (config, algorithm, seed, dataset
  fingerprint), so resumed grids skip verified work and config drift
  invalidates instead of silently reusing.

See ``docs/performance.md`` for the architecture discussion,
``docs/fault_tolerance.md`` for the grid-level recovery model, and
``benchmarks/test_bench_parallel_grid.py`` for the measured speedups.
"""

from repro import _lazy

__all__ = [
    "SHARED_MEMORY_AVAILABLE",
    "SEGMENT_PREFIX",
    "SharedMemoryUnavailable",
    "ArraySpec",
    "ArrayPackSpec",
    "SharedArrayPack",
    "publish",
    "attach",
    "detach_all",
    "owned_segments",
    "leaked_segments",
    "janitor_sweep",
    "unlink_segments",
    "dataset_arrays",
    "publish_dataset",
    "PublishedDataset",
    "SharedDatasetHandle",
    "RestoredDataset",
    "CellReply",
    "ParallelEngine",
    "MANIFEST_FORMAT",
    "CellStatus",
    "GridManifest",
    "WorkerJournal",
    "RESULT_FORMAT",
    "ResultStore",
    "dataset_fingerprint",
    "grid_fingerprint",
]

__getattr__, __dir__ = _lazy.exports(globals(), {
    ".descriptors": (
        "PublishedDataset", "RestoredDataset", "SharedDatasetHandle",
        "dataset_arrays", "publish_dataset",
    ),
    ".engine": ("CellReply", "ParallelEngine"),
    ".manifest": (
        "MANIFEST_FORMAT", "CellStatus", "GridManifest", "WorkerJournal",
    ),
    ".resultstore": (
        "RESULT_FORMAT", "ResultStore", "dataset_fingerprint",
        "grid_fingerprint",
    ),
    ".shm": (
        "SEGMENT_PREFIX", "SHARED_MEMORY_AVAILABLE", "ArrayPackSpec",
        "ArraySpec", "SharedArrayPack", "SharedMemoryUnavailable", "attach",
        "detach_all", "janitor_sweep", "leaked_segments", "owned_segments",
        "publish", "unlink_segments",
    ),
})
