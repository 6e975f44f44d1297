"""Online streaming dispatch service (see ``docs/online_service.md``).

Long-running windowed re-optimization: tasks arrive continuously from
an arrival process (or a recorded trace), are buffered into dispatch
windows, and each window is re-optimized by a warm-started evolutionary
run over the *pinned-prefix* horizon — every already-dispatched task is
frozen at the head of its machine queue, so queues that hold only
committed tasks hit the batch kernel's content-fingerprint cache across
generations *and* across windows.  An incrementally maintained
:class:`~repro.core.archive.EpsilonParetoArchive` absorbs every
window's front, keeping a Pareto-optimal energy/utility trade-off
available to the dispatch policy at all times.
"""

from repro import _lazy

__all__ = [
    "ArrivalStream",
    "WindowBatch",
    "windows_from_trace",
    "CommittedLedger",
    "WindowEvaluator",
    "ServiceConfig",
    "DispatchService",
    "ServiceResult",
    "WindowReport",
]

__getattr__, __dir__ = _lazy.exports(globals(), {
    ".dispatch": (
        "DispatchService", "ServiceConfig", "ServiceResult", "WindowReport",
    ),
    ".stream": ("ArrivalStream", "WindowBatch", "windows_from_trace"),
    ".window": ("CommittedLedger", "WindowEvaluator"),
})
