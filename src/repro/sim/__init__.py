"""Schedule simulation and evaluation (paper Sections IV-B and V).

Given a system, a trace, and a resource allocation (per-task machine
assignment + global scheduling order), this package computes the two
objective values of the paper — total utility earned ``U`` (Eq. 1) and
total energy consumed ``E`` (Eq. 3) — plus auxiliary schedule metrics.

:mod:`repro.sim.evaluator` is the one evaluator.  The per-machine
queue recurrence ``f_i = max(f_{i-1}, a_i) + e_i`` is solved in closed
form by one queue fold (:mod:`repro.sim.batchkernel`: a cumulative sum
plus a running maximum per queue), so evaluating a chromosome is pure
vectorized NumPy (no Python loop over tasks), and whole populations
evaluate in one shot.  The online service's window evaluator and the
makespan baseline (:mod:`repro.sim.makespan`) are subclasses of it.
The sequential event simulator the tests check it against lives in
``tests/oracles.py``.
"""

from repro import _lazy

__all__ = [
    "ResourceAllocation",
    "ScheduleEvaluator",
    "EvaluationResult",
    "ScheduleMetrics",
    "compute_metrics",
    "GanttEntry",
    "gantt_entries",
    "render_gantt",
    "machine_timeline",
]

__getattr__, __dir__ = _lazy.exports(globals(), {
    ".evaluator": ("EvaluationResult", "ScheduleEvaluator"),
    ".gantt": ("GanttEntry", "gantt_entries", "machine_timeline",
               "render_gantt"),
    ".metrics": ("ScheduleMetrics", "compute_metrics"),
    ".schedule": ("ResourceAllocation",),
})
