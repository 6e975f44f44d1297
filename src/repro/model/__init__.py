"""System model: machines, task types, and ETC/EPC/EEC matrices.

This package implements Section III of the paper: a suite of
heterogeneous machines (general-purpose and special-purpose), a set of
task types, and the Estimated Time to Compute (ETC) / Estimated Power
Consumption (EPC) matrices that characterize them.  The derived
Estimated Energy Consumption (EEC) matrix is ``ETC * EPC`` (Eq. 2).
"""

from repro import _lazy

__all__ = [
    "Machine",
    "MachineCategory",
    "MachineType",
    "TaskCategory",
    "TaskType",
    "TypedMatrix",
    "ETCMatrix",
    "EPCMatrix",
    "EECMatrix",
    "SystemModel",
]

__getattr__, __dir__ = _lazy.exports(globals(), {
    ".machine": ("Machine", "MachineCategory", "MachineType"),
    ".matrices": ("EECMatrix", "EPCMatrix", "ETCMatrix", "TypedMatrix"),
    ".system": ("SystemModel",),
    ".task": ("TaskCategory", "TaskType"),
})
