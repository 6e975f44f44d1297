"""Pareto-front analysis (paper Section VI, Figures 3-6).

* :mod:`repro.analysis.pareto_front` — immutable front container,
  merging, and cross-front dominance comparisons (the Fig. 6 claim
  "seeded populations find solutions that dominate those found by the
  random population" is computed here).
* :mod:`repro.analysis.efficiency` — the Figure 5 method for locating
  the maximum utility-per-energy region of a front.
* :mod:`repro.analysis.indicators` — hypervolume, spacing, spread,
  additive epsilon, IGD.
* :mod:`repro.analysis.convergence` — indicator series across
  checkpoint generations.
* :mod:`repro.analysis.portfolio` — cross-algorithm indicator
  comparison with optional distance-to-optimal columns against the
  exact baselines of :mod:`repro.exact`.
* :mod:`repro.analysis.report` — ASCII tables and scatter plots used
  by the CLI, examples, and benchmark output.
"""

from repro import _lazy

__all__ = [
    "ParetoFront",
    "EfficiencyRegion",
    "max_utility_per_energy_region",
    "hypervolume",
    "spacing",
    "spread",
    "additive_epsilon",
    "igd",
    "convergence_series",
    "dominance_fraction",
    "attainment_surface",
    "attainment_summary",
    "front_to_csv",
    "figure_to_csv",
    "render_svg_scatter",
    "figure_to_svg",
    "experiment_report",
    "compare_runs",
    "render_comparison",
    "AlgorithmScore",
    "PortfolioComparison",
    "compare_portfolio",
]

__getattr__, __dir__ = _lazy.exports(globals(), {
    ".attainment": ("attainment_summary", "attainment_surface"),
    ".compare": ("compare_runs", "render_comparison"),
    ".efficiency": ("EfficiencyRegion", "max_utility_per_energy_region"),
    ".export": (
        "figure_to_csv", "figure_to_svg", "front_to_csv", "render_svg_scatter",
    ),
    ".convergence": ("convergence_series", "dominance_fraction"),
    ".indicators": (
        "additive_epsilon", "hypervolume", "igd", "spacing", "spread",
    ),
    ".pareto_front": ("ParetoFront",),
    ".portfolio": (
        "AlgorithmScore", "PortfolioComparison", "compare_portfolio",
    ),
    ".summary": ("experiment_report",),
})
