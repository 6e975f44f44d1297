"""Time-utility functions (paper Section IV-B1, Briceno et al. HCW 2011).

Each task type carries a monotonically non-increasing *time-utility
function* (TUF) built from three parameter sets:

* **priority** — the maximum utility the task can earn;
* **urgency** — the base rate at which utility decays with completion
  time;
* **utility characteristic class** — an ordered list of intervals, each
  spanning a begin/end percentage of maximum priority with its own
  urgency modifier and decay shape.

This package defines the interval/class/TUF value objects, compiles
them into breakpoint tables, and provides fully vectorized batch
evaluation for the simulator hot path.
"""

from repro import _lazy

__all__ = [
    "DecayShape",
    "UtilityInterval",
    "UtilityClass",
    "TimeUtilityFunction",
    "CompiledTUF",
    "TUFTable",
    "PresetCatalog",
    "default_catalog",
    "assign_presets",
]

__getattr__, __dir__ = _lazy.exports(globals(), {
    ".intervals": ("DecayShape", "UtilityClass", "UtilityInterval"),
    ".presets": ("PresetCatalog", "default_catalog", "assign_presets"),
    ".tuf": ("CompiledTUF", "TimeUtilityFunction"),
    ".vectorized": ("TUFTable",),
})
