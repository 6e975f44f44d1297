"""Figure reproduction drivers (paper Figures 3-6).

Each ``figureN`` function runs the corresponding experiment and returns
a :class:`FigureResult` holding, per population and checkpoint, the
Pareto-front points — the exact data plotted in the paper — plus the
per-front efficiency regions (the circled max utility-per-energy
regions) and rendering helpers.

Paper checkpoint generations (``PAPER_CHECKPOINTS``) are scaled through
:func:`repro.experiments.config.scaled_checkpoints` unless explicit
checkpoints are passed; set ``REPRO_SCALE=1`` for paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.efficiency import EfficiencyRegion, max_utility_per_energy_region
from repro.analysis.pareto_front import ParetoFront
from repro.analysis.report import ascii_scatter, format_front_summary, format_table
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import DatasetBundle, dataset1, dataset2, dataset3
from repro.experiments.runner import (
    SeededPopulationResult,
    run_seeded_populations,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.context import RunContext

__all__ = [
    "PAPER_CHECKPOINTS",
    "FigureResult",
    "Figure5Result",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
]

#: The paper's checkpoint generations per figure.
PAPER_CHECKPOINTS: dict[str, tuple[int, ...]] = {
    "figure3": (100, 1_000, 10_000, 100_000),
    "figure4": (1_000, 10_000, 100_000, 1_000_000),
    "figure6": (1_000, 10_000, 100_000, 1_000_000),
}


@dataclass(frozen=True)
class FigureResult:
    """Reproduction data for one multi-subplot Pareto-front figure.

    Attributes
    ----------
    name:
        "figure3" / "figure4" / "figure6".
    result:
        The underlying seeded-population run.
    paper_checkpoints:
        The paper's generation counts, aligned with
        ``result.config.checkpoints`` (the scaled counts actually run).
    """

    name: str
    result: SeededPopulationResult
    paper_checkpoints: tuple[int, ...]

    @property
    def checkpoints(self) -> tuple[int, ...]:
        """The scaled checkpoint generations that were run."""
        return self.result.config.checkpoints

    def subplot(self, checkpoint_index: int) -> dict[str, ParetoFront]:
        """Fronts of every population at the i-th checkpoint (one subplot)."""
        if not (0 <= checkpoint_index < len(self.checkpoints)):
            raise ExperimentError(
                f"checkpoint index {checkpoint_index} out of range "
                f"[0, {len(self.checkpoints)})"
            )
        return self.result.fronts_at(self.checkpoints[checkpoint_index])

    def efficiency_regions(self) -> dict[str, EfficiencyRegion]:
        """Circled max-U/E region of each population's final front."""
        return {
            label: max_utility_per_energy_region(self.result.front(label))
            for label in self.result.histories
        }

    def render(self, plot: bool = False) -> str:
        """Text rendering of the whole figure (tables, optional plots)."""
        blocks: list[str] = [
            f"=== {self.name}: Pareto fronts of total energy consumed vs "
            f"total utility earned ({self.result.dataset_name}) ==="
        ]
        for i, (gen, paper_gen) in enumerate(
            zip(self.checkpoints, self.paper_checkpoints)
        ):
            fronts = self.subplot(i)
            blocks.append(
                f"-- subplot {i + 1}: through {gen} generations "
                f"(paper: {paper_gen:,} iterations) --"
            )
            blocks.append(format_front_summary(fronts))
            if plot:
                blocks.append(
                    ascii_scatter({k: f.points for k, f in fronts.items()})
                )
        return "\n".join(blocks)


def _run_figure(
    name: str,
    dataset: DatasetBundle,
    checkpoints: Optional[Sequence[int]],
    population_size: int,
    mutation_probability: float,
    base_seed: int,
    scale: Optional[float],
    workers: int = 0,
    transport: str = "auto",
    algorithm: str = "nsga2",
    obs: Optional["RunContext"] = None,
) -> FigureResult:
    paper = PAPER_CHECKPOINTS[name]
    if checkpoints is None:
        config = ExperimentConfig.for_paper_checkpoints(
            paper,
            scale=scale,
            population_size=population_size,
            mutation_probability=mutation_probability,
            base_seed=base_seed,
            algorithm=algorithm,
        )
    else:
        cps = tuple(checkpoints)
        config = ExperimentConfig(
            population_size=population_size,
            mutation_probability=mutation_probability,
            generations=cps[-1],
            checkpoints=cps,
            base_seed=base_seed,
            algorithm=algorithm,
        )
    if obs is not None and obs.enabled:
        obs = obs.bind(figure=name)
        with obs.span("figure.run", figure=name):
            result = run_seeded_populations(
                dataset, config, workers=workers, transport=transport, obs=obs
            )
    else:
        result = run_seeded_populations(
            dataset, config, workers=workers, transport=transport
        )
    return FigureResult(name=name, result=result, paper_checkpoints=paper)


def figure3(
    checkpoints: Optional[Sequence[int]] = None,
    population_size: int = 100,
    mutation_probability: float = 0.25,
    base_seed: int = 2013,
    scale: Optional[float] = None,
    dataset: Optional[DatasetBundle] = None,
    workers: int = 0,
    transport: str = "auto",
    algorithm: str = "nsga2",
    obs: Optional["RunContext"] = None,
) -> FigureResult:
    """Figure 3: the real historical data set (data set 1)."""
    ds = dataset if dataset is not None else dataset1(base_seed)
    return _run_figure(
        "figure3", ds, checkpoints, population_size,
        mutation_probability, base_seed, scale,
        workers=workers, transport=transport, algorithm=algorithm,
        obs=obs,
    )


def figure4(
    checkpoints: Optional[Sequence[int]] = None,
    population_size: int = 100,
    mutation_probability: float = 0.25,
    base_seed: int = 2013,
    scale: Optional[float] = None,
    dataset: Optional[DatasetBundle] = None,
    workers: int = 0,
    transport: str = "auto",
    algorithm: str = "nsga2",
    obs: Optional["RunContext"] = None,
) -> FigureResult:
    """Figure 4: the 1000-task synthetic data set (data set 2)."""
    ds = dataset if dataset is not None else dataset2(base_seed)
    return _run_figure(
        "figure4", ds, checkpoints, population_size,
        mutation_probability, base_seed, scale,
        workers=workers, transport=transport, algorithm=algorithm,
        obs=obs,
    )


def figure6(
    checkpoints: Optional[Sequence[int]] = None,
    population_size: int = 100,
    mutation_probability: float = 0.25,
    base_seed: int = 2013,
    scale: Optional[float] = None,
    dataset: Optional[DatasetBundle] = None,
    workers: int = 0,
    transport: str = "auto",
    algorithm: str = "nsga2",
    obs: Optional["RunContext"] = None,
) -> FigureResult:
    """Figure 6: the 4000-task synthetic data set (data set 3)."""
    ds = dataset if dataset is not None else dataset3(base_seed)
    return _run_figure(
        "figure6", ds, checkpoints, population_size,
        mutation_probability, base_seed, scale,
        workers=workers, transport=transport, algorithm=algorithm,
        obs=obs,
    )


# -- Figure 5 -----------------------------------------------------------------


@dataclass(frozen=True)
class Figure5Result:
    """Figure 5: locating the max utility-per-energy region.

    Attributes
    ----------
    front:
        Subplot A — the final front of the max-utility-per-energy
        seeded population.
    region:
        The circled region; ``region.ratios`` against
        ``front.utilities`` is subplot B, against ``front.energies``
        subplot C; the peak coordinates are the solid (utility) and
        dashed (energy) guide lines.
    """

    front: ParetoFront
    region: EfficiencyRegion

    @property
    def curve_vs_utility(self) -> np.ndarray:
        """Subplot B data: ``(F, 2)`` columns (utility, U/E)."""
        return np.column_stack([self.front.utilities, self.region.ratios])

    @property
    def curve_vs_energy(self) -> np.ndarray:
        """Subplot C data: ``(F, 2)`` columns (energy, U/E)."""
        return np.column_stack([self.front.energies, self.region.ratios])

    def render(self) -> str:
        """Text rendering of the three-subplot content."""
        rows = [
            ["peak utility-per-energy", f"{self.region.peak_ratio * 1e6:.3f} utility/MJ"],
            ["at utility (solid line)", f"{self.region.peak_utility:.2f}"],
            ["at energy (dashed line)", f"{self.region.peak_energy / 1e6:.4f} MJ"],
            ["region size", f"{self.region.region_size} of {self.front.size} points"],
        ]
        return format_table(
            ["quantity", "value"],
            rows,
            title="figure5: max utility-per-energy region "
            f"(front '{self.front.label}')",
        )


def figure5(
    figure4_result: Optional[FigureResult] = None,
    tolerance: float = 0.05,
    **figure4_kwargs,
) -> Figure5Result:
    """Figure 5: efficiency-region analysis of the Figure 4 front.

    Accepts an existing :func:`figure4` result (to avoid re-running) or
    runs one with *figure4_kwargs*.
    """
    fig4 = figure4_result if figure4_result is not None else figure4(**figure4_kwargs)
    front = fig4.result.front("max-utility-per-energy")
    region = max_utility_per_energy_region(front, tolerance=tolerance)
    return Figure5Result(front=front, region=region)
