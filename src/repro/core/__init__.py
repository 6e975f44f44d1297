"""Bi-objective optimization core (paper Section IV).

From-scratch implementation of the paper's adapted NSGA-II: solution
dominance for (minimize energy, maximize utility), fast nondominated
sorting, crowding distance, the gene/chromosome encoding of Section
IV-D, the range-swap crossover and machine/order mutation operators,
elitist generational loop (Algorithm 1), seeded initial populations,
and an all-time external Pareto archive.
"""

from repro import _lazy

__all__ = [
    "ObjectiveSense",
    "BiObjectiveSpace",
    "dominates",
    "nondominated_mask",
    "pareto_filter",
    "fast_nondominated_sort",
    "domination_count_ranks",
    "crowding_distance",
    "crowding_by_front",
    "Gene",
    "Chromosome",
    "Population",
    "OperatorConfig",
    "VariationOperators",
    "Algorithm",
    "AlgorithmConfig",
    "EvolutionaryAlgorithm",
    "NSGA2",
    "SPEA2",
    "spea2_fitness",
    "MOEAD",
    "EpsilonArchiveNSGA2",
    "ALGORITHMS",
    "available_algorithms",
    "make_algorithm",
    "GenerationSnapshot",
    "RunHistory",
    "ParetoArchive",
    "EpsilonParetoArchive",
    "CheckpointStore",
    "EngineState",
    "capture_state",
    "restore_state",
    "seeded_initial_population",
    "TerminationCriterion",
    "MaxGenerations",
    "MaxEvaluations",
    "MaxWallClock",
    "HypervolumeStagnation",
    "AnyOf",
    "TelemetryRecorder",
    "GenerationStats",
    "StageTimings",
    "compose",
]

__getattr__, __dir__ = _lazy.exports(globals(), {
    ".algorithm": (
        "Algorithm", "AlgorithmConfig", "EvolutionaryAlgorithm",
        "GenerationSnapshot", "RunHistory",
    ),
    ".archive": ("EpsilonParetoArchive", "ParetoArchive"),
    ".checkpoint": (
        "CheckpointStore", "EngineState", "capture_state", "restore_state",
    ),
    ".chromosome": ("Chromosome", "Gene"),
    ".crowding": ("crowding_by_front", "crowding_distance"),
    ".dominance": ("dominates", "nondominated_mask", "pareto_filter"),
    ".moead": ("MOEAD",),
    ".nsga2": ("NSGA2", "EpsilonArchiveNSGA2"),
    ".objectives": ("BiObjectiveSpace", "ObjectiveSense"),
    ".operators": ("OperatorConfig", "VariationOperators"),
    ".population": ("Population",),
    ".registry": ("ALGORITHMS", "available_algorithms", "make_algorithm"),
    ".seeding": ("seeded_initial_population",),
    ".spea2": ("SPEA2", "spea2_fitness"),
    ".sorting": ("domination_count_ranks", "fast_nondominated_sort"),
    ".telemetry": (
        "GenerationStats", "StageTimings", "TelemetryRecorder", "compose",
    ),
    ".termination": (
        "AnyOf", "HypervolumeStagnation", "MaxEvaluations", "MaxGenerations",
        "MaxWallClock", "TerminationCriterion",
    ),
})
