"""Data sets and data-generation methods (paper Section III-D).

* :mod:`repro.data.historical` — the real 5×9 benchmark data set
  (Table I machines × Table II programs), reconstructed from published
  magnitudes (see DESIGN.md substitution table), plus a CSV loader for
  user-supplied real data.
* :mod:`repro.data.heterogeneity` — the mean / coefficient-of-variation
  / skewness / kurtosis ("mvsk") heterogeneity measures of Al-Qawasmeh
  et al. used to characterize and preserve data-set heterogeneity.
* :mod:`repro.data.gram_charlier` — the Gram-Charlier Type-A expansion
  PDF and its sampler, used to draw new row averages and execution-time
  ratios with prescribed mvsk.
* :mod:`repro.data.synthetic` — the Section III-D2 pipeline that
  expands a small real data set into a large one preserving its
  heterogeneity characteristics.
* :mod:`repro.data.special_purpose` — construction of 10x-faster
  special-purpose machine types.
* :mod:`repro.data.cvb` — the classic coefficient-of-variation-based
  ETC generator (Ali et al. 2000), kept as a comparison baseline.
"""

from repro import _lazy

__all__ = [
    "MACHINE_NAMES",
    "PROGRAM_NAMES",
    "historical_etc",
    "historical_epc",
    "historical_system",
    "HeterogeneityStats",
    "mvsk",
    "ks_similarity",
    "GramCharlierPDF",
    "SyntheticExpansion",
    "expand_matrix_pair",
]

__getattr__, __dir__ = _lazy.exports(globals(), {
    ".gram_charlier": ("GramCharlierPDF",),
    ".heterogeneity": ("HeterogeneityStats", "ks_similarity", "mvsk"),
    ".historical": (
        "MACHINE_NAMES", "PROGRAM_NAMES", "historical_epc", "historical_etc",
        "historical_system",
    ),
    ".synthetic": ("SyntheticExpansion", "expand_matrix_pair"),
})
