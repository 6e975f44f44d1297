"""Workload traces (paper Section III-C and V-A).

The paper performs a *post-mortem static* resource allocation: a trace
of tasks arriving over a fixed window (e.g. 250 tasks over 15 minutes)
is simulated first, so all arrival times and task types are known a
priori.  This package generates such traces:

* :mod:`repro.workload.arrivals` — arrival-time processes (Poisson in
  window, uniform, bursty);
* :mod:`repro.workload.trace` — the immutable :class:`Trace` container
  with columnar NumPy views for the simulator;
* :mod:`repro.workload.generator` — the full workload generator
  combining an arrival process with a task-type mix.
"""

from repro import _lazy

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "UniformArrivals",
    "BurstyArrivals",
    "Trace",
    "ProfileArrivals",
    "TaskTypeMix",
    "WorkloadGenerator",
    "SWFJob",
    "parse_swf",
    "parse_swf_text",
    "trace_from_swf",
    "export_swf",
]

__getattr__, __dir__ = _lazy.exports(globals(), {
    ".arrivals": (
        "ArrivalProcess", "BurstyArrivals", "PoissonArrivals",
        "ProfileArrivals", "UniformArrivals",
    ),
    ".importers": (
        "SWFJob", "export_swf", "parse_swf", "parse_swf_text",
        "trace_from_swf",
    ),
    ".generator": ("TaskTypeMix", "WorkloadGenerator"),
    ".trace": ("Trace",),
})
