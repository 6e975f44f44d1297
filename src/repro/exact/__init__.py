"""Exact bi-objective baselines for distance-to-optimal reporting.

The MOEA portfolio approximates the Pareto front; this package computes
*provable* reference fronts for relaxations of the paper's scheduling
problem, in the spirit of the exact bi-objective algorithms of
Khaleghzadeh et al. (arXiv:1907.04080, arXiv:2209.02475).  Because the
contention-free relaxation only ever improves utility at equal energy,
its exact front is an **outer bound** on every achievable
(energy, utility) point — so "distance to the exact front" upper-bounds
the true optimality gap of an evolved front.
"""

from repro import _lazy

__all__ = [
    "ExactFront",
    "brute_force_energy_utility_front",
    "contention_free_options",
    "distance_to_exact",
    "exact_energy_makespan_front",
    "exact_energy_utility_front",
]

__getattr__, __dir__ = _lazy.exports(globals(), {
    ".baselines": (
        "ExactFront", "brute_force_energy_utility_front",
        "contention_free_options", "distance_to_exact",
        "exact_energy_makespan_front", "exact_energy_utility_front",
    ),
})
