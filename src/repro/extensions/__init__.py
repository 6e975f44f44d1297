"""Future-work extensions named in the paper's conclusion (Section VII).

"There are many possible directions for future work.  Two are:
dropping tasks that will generate negligible utility when they
complete, and incorporating dynamic voltage and frequency scaling
capabilities of processors."

* :mod:`repro.extensions.dropping` — post-allocation task dropping:
  tasks whose earned utility falls below a threshold are removed from
  their queues (saving their energy and pulling later queue-mates
  earlier), iterated to a fixed point.
* :mod:`repro.extensions.dvfs` — per-task DVFS: every machine exposes
  several P-states (operating points); the allocation problem gains a
  per-task operating-point choice, modeled as virtual machines that
  share the physical machine's queue, so the unchanged NSGA-II
  optimizes placement and frequency jointly.
"""

from repro import _lazy

__all__ = [
    "DroppingPolicy",
    "apply_dropping",
    "PState",
    "DVFS_PRESETS",
    "expand_system_dvfs",
    "make_dvfs_evaluator",
    "OnlineDispatcher",
    "MaxUtilityPolicy",
    "UtilityPerEnergyPolicy",
    "BudgetedUtilityPolicy",
    "budget_from_front",
    "NoiseModel",
    "RobustnessAnalyzer",
    "RobustnessReport",
    "front_robustness",
]

__getattr__, __dir__ = _lazy.exports(globals(), {
    ".dropping": ("DroppingPolicy", "apply_dropping"),
    ".dvfs": (
        "PState", "DVFS_PRESETS", "expand_system_dvfs", "make_dvfs_evaluator",
    ),
    ".robustness": (
        "NoiseModel", "RobustnessAnalyzer", "RobustnessReport",
        "front_robustness",
    ),
    ".online": (
        "BudgetedUtilityPolicy", "MaxUtilityPolicy", "OnlineDispatcher",
        "UtilityPerEnergyPolicy", "budget_from_front",
    ),
})
