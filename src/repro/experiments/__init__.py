"""Experiment definitions and reproduction drivers (paper Section V-VI).

* :mod:`repro.experiments.datasets` — data sets 1, 2, and 3 exactly as
  Section V-A specifies them (machine breakups, task counts, windows).
* :mod:`repro.experiments.runner` — run the five seeded populations
  (four heuristic seeds + all-random) with any checkpointed portfolio
  algorithm (NSGA-II by default).
* :mod:`repro.experiments.portfolio` — head-to-head runs of every
  registered algorithm on one dataset, scored against the exact
  contention-free baseline.
* :mod:`repro.experiments.figures` — one driver per paper figure.
* :mod:`repro.experiments.tables` — Tables I, II, III.
* :mod:`repro.experiments.io` — result serialization.
"""

from repro import _lazy

__all__ = [
    "ExperimentConfig",
    "scaled_checkpoints",
    "DatasetBundle",
    "TABLE3_MACHINE_COUNTS",
    "dataset1",
    "dataset2",
    "dataset3",
    "PopulationFailure",
    "RetryPolicy",
    "SeededPopulationResult",
    "run_seeded_populations",
    "FigureResult",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "table1",
    "table2",
    "table3",
    "HypervolumeStats",
    "RepetitionResult",
    "run_repetitions",
    "LoadPoint",
    "offered_load",
    "oversubscription_sweep",
    "reproduce_all",
    "ClaimResult",
    "verify_paper_claims",
    "PortfolioResult",
    "run_portfolio",
]

__getattr__, __dir__ = _lazy.exports(globals(), {
    ".config": ("ExperimentConfig", "scaled_checkpoints"),
    ".datasets": (
        "DatasetBundle", "TABLE3_MACHINE_COUNTS", "dataset1", "dataset2",
        "dataset3",
    ),
    ".runner": (
        "PopulationFailure", "RetryPolicy", "SeededPopulationResult",
        "run_seeded_populations",
    ),
    ".figures": ("FigureResult", "figure3", "figure4", "figure5", "figure6"),
    ".claims": ("ClaimResult", "verify_paper_claims"),
    ".portfolio": ("PortfolioResult", "run_portfolio"),
    ".reproduce": ("reproduce_all",),
    ".sweep": ("LoadPoint", "offered_load", "oversubscription_sweep"),
    ".repetitions": (
        "HypervolumeStats", "RepetitionResult", "run_repetitions",
    ),
    ".tables": ("table1", "table2", "table3"),
})
