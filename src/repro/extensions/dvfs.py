"""DVFS — the paper's second named future-work direction.

Dynamic voltage and frequency scaling lets a processor trade speed for
power.  We model each machine as exposing a small set of **P-states**
(operating points): at P-state *p* with speed factor ``s_p`` and power
factor ``w_p``, a task's execution time becomes ``ETC/s_p`` and its
power ``EPC·w_p`` (so energy scales by ``w_p/s_p`` — sub-linear power
factors at reduced frequency save energy, the classic DVFS trade-off,
since dynamic power falls roughly cubically with frequency while time
grows only linearly).

**Encoding.** Each (machine, P-state) pair becomes a *virtual machine*
with its own ETC/EPC column, and all virtual machines of one physical
machine share a single queue via the evaluator's ``queue_groups``
mapping (see :class:`repro.sim.evaluator.ScheduleEvaluator`).  The
chromosome's machine gene then selects placement *and* frequency
jointly, and the unchanged NSGA-II machinery optimizes both — no new
operators required.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ModelError
from repro.model.machine import Machine, MachineType
from repro.model.matrices import EPCMatrix, ETCMatrix
from repro.model.system import SystemModel
from repro.sim.evaluator import ScheduleEvaluator
from repro.types import IntArray
from repro.workload.trace import Trace

__all__ = ["PState", "DVFS_PRESETS", "expand_system_dvfs", "make_dvfs_evaluator"]


@dataclass(frozen=True, slots=True)
class PState:
    """One processor operating point.

    Attributes
    ----------
    name:
        Label (e.g. ``"p0"`` for nominal).
    speed_factor:
        Execution-rate multiplier (1.0 = nominal; 0.7 = 30% slower).
    power_factor:
        Power multiplier under load (1.0 = nominal).  Energy per task
        scales by ``power_factor / speed_factor``.
    """

    name: str
    speed_factor: float
    power_factor: float

    def __post_init__(self) -> None:
        if self.speed_factor <= 0:
            raise ModelError(f"speed_factor must be > 0, got {self.speed_factor}")
        if self.power_factor <= 0:
            raise ModelError(f"power_factor must be > 0, got {self.power_factor}")

    @property
    def energy_factor(self) -> float:
        """Per-task energy multiplier at this operating point."""
        return self.power_factor / self.speed_factor


#: A three-point DVFS ladder with roughly cubic dynamic-power scaling
#: plus a static floor: f³·0.7 + 0.3 at relative frequency f.
DVFS_PRESETS: tuple[PState, ...] = (
    PState("p0-nominal", speed_factor=1.0, power_factor=1.0),
    PState("p1-reduced", speed_factor=0.8, power_factor=0.7 * 0.8**3 + 0.3),
    PState("p2-low", speed_factor=0.6, power_factor=0.7 * 0.6**3 + 0.3),
)


def expand_system_dvfs(
    system: SystemModel, pstates: Sequence[PState] = DVFS_PRESETS
) -> tuple[SystemModel, IntArray]:
    """Expand *system* with one virtual machine per (machine, P-state).

    Returns
    -------
    ``(virtual_system, queue_groups)`` where ``queue_groups[v]`` is the
    physical machine index of virtual machine *v*.  Virtual machines
    are laid out machine-major: ``v = m * P + p``.

    Machine *types* are expanded the same way (type-major), so the
    virtual system's ETC/EPC matrices carry the scaled values and every
    downstream component (TUF tables, heuristics, serialization) works
    unchanged.
    """
    if not pstates:
        raise ModelError("at least one P-state is required")
    P = len(pstates)
    Mt = system.num_machine_types

    etc = system.etc.values
    epc = system.epc.values
    feasible = system.etc.feasible
    # Column layout: type-major — columns [j*P + p].
    etc_v = np.empty((system.num_task_types, Mt * P), dtype=np.float64)
    epc_v = np.empty_like(etc_v)
    feas_v = np.empty(etc_v.shape, dtype=bool)
    for p, ps in enumerate(pstates):
        etc_v[:, p::P] = etc / ps.speed_factor
        epc_v[:, p::P] = epc * ps.power_factor
        feas_v[:, p::P] = feasible
    etc_v[~feas_v] = np.inf
    epc_v[~feas_v] = np.inf

    machine_types: list[MachineType] = []
    for mt in system.machine_types:
        for p, ps in enumerate(pstates):
            machine_types.append(
                MachineType(
                    name=f"{mt.name} @{ps.name}",
                    index=mt.index * P + p,
                    category=mt.category,
                    supported_task_types=mt.supported_task_types,
                    idle_power_watts=mt.idle_power_watts,
                )
            )
    machines: list[Machine] = []
    queue_groups = np.empty(system.num_machines * P, dtype=np.int64)
    for m in system.machines:
        for p, ps in enumerate(pstates):
            v = m.index * P + p
            machines.append(
                Machine(
                    name=f"{m.name} @{ps.name}",
                    index=v,
                    machine_type=machine_types[m.machine_type.index * P + p],
                )
            )
            queue_groups[v] = m.index

    virtual = SystemModel(
        machine_types=tuple(machine_types),
        machines=tuple(machines),
        task_types=system.task_types,
        etc=ETCMatrix(etc_v, feas_v),
        epc=EPCMatrix(epc_v, feas_v),
    )
    return virtual, queue_groups


def make_dvfs_evaluator(
    system: SystemModel,
    trace: Trace,
    pstates: Sequence[PState] = DVFS_PRESETS,
    check_feasibility: bool = False,
) -> ScheduleEvaluator:
    """A schedule evaluator over the DVFS-expanded virtual machine space.

    Plug the returned evaluator into :class:`repro.core.nsga2.NSGA2`
    exactly like a plain one; chromosomes then choose (machine,
    P-state) jointly.  Virtual machines of one physical machine share
    its queue.
    """
    virtual, queue_groups = expand_system_dvfs(system, pstates)
    return ScheduleEvaluator(
        virtual, trace,
        check_feasibility=check_feasibility,
        queue_groups=queue_groups,
    )
