"""repro — analysis framework for utility/energy trade-offs in
heterogeneous computing.

A from-scratch reproduction of Friese et al., *"An Analysis Framework
for Investigating the Trade-offs Between System Performance and Energy
Consumption in a Heterogeneous Computing Environment"* (IPDPSW 2013):
heterogeneous system model with ETC/EPC matrices, time-utility
functions, heterogeneity-preserving synthetic data generation
(Gram-Charlier), a vectorized schedule simulator, a pluggable MOEA
portfolio (the paper's adapted NSGA-II plus steady-state NSGA-II,
SPEA2, MOEA/D, and an ε-archive variant behind one ``Algorithm`` API),
the four seeding heuristics, exact contention-free baselines for
distance-to-optimal reporting, Pareto-front analysis (including the
max utility-per-energy region method of Figure 5), and drivers
reproducing every table and figure.

Quickstart::

    from repro import dataset1, figure3

    bundle = dataset1(seed=7)          # real 5x9 data, 250-task trace
    result = figure3(dataset=bundle)   # 5 seeded NSGA-II populations
    print(result.render())

See README.md for the full tour and DESIGN.md for the system inventory.
"""

from repro import _lazy

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # model & data
    "SystemModel",
    "historical_system",
    "historical_etc",
    "historical_epc",
    "HeterogeneityStats",
    "mvsk",
    "GramCharlierPDF",
    "expand_matrix_pair",
    # utility & workload
    "TimeUtilityFunction",
    "UtilityClass",
    "Trace",
    "WorkloadGenerator",
    # simulation
    "ResourceAllocation",
    "ScheduleEvaluator",
    "EvaluationResult",
    # optimization portfolio
    "Algorithm",
    "AlgorithmConfig",
    "EvolutionaryAlgorithm",
    "NSGA2",
    "SPEA2",
    "MOEAD",
    "EpsilonArchiveNSGA2",
    "ALGORITHMS",
    "available_algorithms",
    "make_algorithm",
    "OperatorConfig",
    "ParetoArchive",
    "dominates",
    "fast_nondominated_sort",
    # exact baselines
    "ExactFront",
    "exact_energy_utility_front",
    "exact_energy_makespan_front",
    "distance_to_exact",
    # heuristics
    "SEEDING_HEURISTICS",
    "MinEnergy",
    "MaxUtility",
    "MaxUtilityPerEnergy",
    "MinMinCompletionTime",
    # analysis
    "ParetoFront",
    "EfficiencyRegion",
    "max_utility_per_energy_region",
    "hypervolume",
    # experiments
    "dataset1",
    "dataset2",
    "dataset3",
    "run_seeded_populations",
    "run_portfolio",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "table1",
    "table2",
    "table3",
]

__getattr__, __dir__ = _lazy.exports(globals(), {
    ".analysis.efficiency": (
        "EfficiencyRegion", "max_utility_per_energy_region",
    ),
    ".analysis.pareto_front": ("ParetoFront",),
    ".analysis.indicators": ("hypervolume",),
    ".core.registry": ("ALGORITHMS", "available_algorithms", "make_algorithm"),
    ".core.nsga2": ("NSGA2", "EpsilonArchiveNSGA2"),
    ".core.moead": ("MOEAD",),
    ".core.spea2": ("SPEA2",),
    ".core.algorithm": (
        "Algorithm", "AlgorithmConfig", "EvolutionaryAlgorithm",
    ),
    ".core.operators": ("OperatorConfig",),
    ".core.archive": ("ParetoArchive",),
    ".core.dominance": ("dominates",),
    ".core.sorting": ("fast_nondominated_sort",),
    ".exact.baselines": (
        "ExactFront", "distance_to_exact", "exact_energy_makespan_front",
        "exact_energy_utility_front",
    ),
    ".data.gram_charlier": ("GramCharlierPDF",),
    ".data.heterogeneity": ("HeterogeneityStats", "mvsk"),
    ".data.synthetic": ("expand_matrix_pair",),
    ".data.historical": (
        "historical_epc", "historical_etc", "historical_system",
    ),
    ".errors": ("ReproError",),
    ".experiments.datasets": ("dataset1", "dataset2", "dataset3"),
    ".experiments.figures": ("figure3", "figure4", "figure5", "figure6"),
    ".experiments.portfolio": ("run_portfolio",),
    ".experiments.runner": ("run_seeded_populations",),
    ".experiments.tables": ("table1", "table2", "table3"),
    ".heuristics": ("SEEDING_HEURISTICS",),
    ".heuristics.max_utility": ("MaxUtility",),
    ".heuristics.utility_per_energy": ("MaxUtilityPerEnergy",),
    ".heuristics.min_energy": ("MinEnergy",),
    ".heuristics.min_min": ("MinMinCompletionTime",),
    ".model.system": ("SystemModel",),
    ".sim.evaluator": ("EvaluationResult", "ScheduleEvaluator"),
    ".sim.schedule": ("ResourceAllocation",),
    ".utility.tuf": ("TimeUtilityFunction",),
    ".utility.intervals": ("UtilityClass",),
    ".workload.trace": ("Trace",),
    ".workload.generator": ("WorkloadGenerator",),
})
