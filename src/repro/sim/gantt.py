"""Gantt-chart rendering of simulated schedules.

Turns an allocation and its
:meth:`~repro.sim.evaluator.ScheduleEvaluator.evaluate` result into
:class:`GanttEntry` rows (:func:`gantt_entries`) and those into a text
timeline, one row per machine — the quickest way to *see* why one
allocation earns more utility than another (idle gaps before late-arriving tasks, long
queues on attractive machines, special-purpose machines monopolized by
their accelerated types).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import ScheduleError
from repro.model.system import SystemModel
from repro.sim.evaluator import EvaluationResult
from repro.sim.schedule import ResourceAllocation

__all__ = ["GanttEntry", "gantt_entries", "machine_timeline", "render_gantt"]

#: Characters cycled to distinguish adjacent tasks on one machine row.
_TASK_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789"


@dataclass(frozen=True, slots=True)
class GanttEntry:
    """One task execution on one machine."""

    task: int
    machine: int
    start: float
    finish: float
    idle_before: float


def gantt_entries(
    allocation: ResourceAllocation,
    result: EvaluationResult,
    arrival_times: np.ndarray,
) -> tuple[GanttEntry, ...]:
    """One entry per task of *allocation*, timed by *result* (its
    :meth:`~repro.sim.evaluator.ScheduleEvaluator.evaluate` outcome,
    without queue groups), sorted by ``(start, machine, task)``.

    A task starts at the later of its arrival (*arrival_times*, the
    trace's) and the previous finish on its machine (machines are free
    from time 0); ``idle_before`` is the difference, exactly 0 when the
    machine was not idle.
    """
    assignment = allocation.machine_assignment
    # Each machine's queue in execution order: by scheduling key, ties
    # by task index (lexsort is stable).
    queue = np.lexsort((allocation.scheduling_order, assignment))
    machines = assignment[queue]
    finish = result.completion_times[queue]
    previous = np.zeros_like(finish)
    same = machines[1:] == machines[:-1]
    previous[1:][same] = finish[:-1][same]
    start = np.maximum(previous, np.asarray(arrival_times)[queue])
    entries = sorted(
        (
            GanttEntry(task=int(t), machine=int(m), start=float(s),
                       finish=float(f), idle_before=float(s - p))
            for t, m, s, f, p in zip(queue, machines, start, finish, previous)
        ),
        key=lambda entry: (entry.start, entry.machine, entry.task),
    )
    return tuple(entries)


def machine_timeline(
    gantt: Sequence[GanttEntry], machine: int
) -> list[GanttEntry]:
    """The entries of one machine, in execution order."""
    entries = [e for e in gantt if e.machine == machine]
    entries.sort(key=lambda e: e.start)
    return entries


def render_gantt(
    gantt: Sequence[GanttEntry],
    system: Optional[SystemModel] = None,
    width: int = 100,
    max_machines: Optional[int] = None,
) -> str:
    """Render the schedule as a fixed-width text chart.

    Each machine is a row; time flows left to right across *width*
    character cells spanning ``[0, makespan]``.  Cells show a letter
    cycling per task, ``.`` for idle-before-arrival gaps between
    tasks, and space for unused tail.  A ruler line with time marks is
    appended.

    Parameters
    ----------
    gantt:
        The schedule's entries (:func:`gantt_entries`).
    system:
        Optional; supplies machine names for row labels.
    width:
        Chart width in cells (>= 20).
    max_machines:
        Truncate to the first machines (None = all in the Gantt).
    """
    if width < 20:
        raise ScheduleError(f"gantt width must be >= 20, got {width}")
    if not gantt:
        raise ScheduleError("cannot render an empty schedule")
    makespan = max(e.finish for e in gantt)
    if makespan <= 0:
        raise ScheduleError("schedule has non-positive makespan")
    machines = sorted({e.machine for e in gantt})
    if max_machines is not None:
        machines = machines[:max_machines]

    def cell(t: float) -> int:
        return min(int(t / makespan * width), width - 1)

    label_width = 14
    lines: list[str] = []
    for m in machines:
        row = [" "] * width
        entries = machine_timeline(gantt, m)
        for i, entry in enumerate(entries):
            lo, hi = cell(entry.start), cell(entry.finish)
            ch = _TASK_CHARS[entry.task % len(_TASK_CHARS)]
            for c in range(lo, max(hi, lo + 1)):
                row[c] = ch
            if entry.idle_before > 0 and i > 0:
                gap_lo = cell(entries[i - 1].finish)
                for c in range(gap_lo, lo):
                    if row[c] == " ":
                        row[c] = "."
        if system is not None and m < system.num_machines:
            name = system.machines[m].name[: label_width - 1]
        else:
            name = f"machine {m}"
        lines.append(f"{name:<{label_width}}|{''.join(row)}|")

    # Time ruler.
    ruler = [" "] * width
    marks = 5
    legend_parts = []
    for k in range(marks):
        t = makespan * k / (marks - 1)
        # Integer placement: cell(t) can round one cell low.
        ruler[min(k * width // (marks - 1), width - 1)] = "+"
        legend_parts.append(f"+={t:.0f}s")
    lines.append(f"{'time':<{label_width}}|{''.join(ruler)}|")
    lines.append(
        f"{'':<{label_width}} marks: " + "  ".join(legend_parts)
        + "  ('.' = idle awaiting arrival)"
    )
    return "\n".join(lines)
