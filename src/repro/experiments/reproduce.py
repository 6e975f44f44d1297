"""One-shot reproduction driver: every table and figure to a directory.

``reproduce_all`` runs Tables I-III and Figures 1-6 at a chosen scale
and writes a self-contained artifact directory:

    <out>/
      tables.txt                 Tables I, II, III
      figure1.txt  figure2.txt   TUF staircase / dominance example
      figure3.json .csv .txt     + figure3_subplot*.svg
      figure4.json .csv .txt     + figure4_subplot*.svg
      figure5.txt
      figure6.json .csv .txt     + figure6_subplot*.svg
      MANIFEST.txt               what was run (scale, seed, workers,
                                 CPUs) and each figure's wall time

This is the paper-scale entry point: ``reproduce_all(out, scale=1.0)``
reruns everything at the original generation counts (hours); the
default scale (0.002) took 233 s serial and 145 s with ``--workers 2``
on a 2-CPU Intel Xeon (``MANIFEST.txt`` records each figure's time).
Also exposed as ``repro-analyze reproduce-all``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

from repro.analysis.export import figure_to_csv, figure_to_svg
from repro.experiments.config import default_scale
from repro.experiments.figures import figure3, figure4, figure5, figure6
from repro.experiments.io import save_figure_result
from repro.experiments.tables import render_table1, render_table2, render_table3
from repro.utility.tuf import TimeUtilityFunction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.context import RunContext

__all__ = ["reproduce_all"]


def _figure1_text() -> str:
    tuf = TimeUtilityFunction.figure1_example()
    times = np.linspace(0.0, 80.0, 17)
    rows = "\n".join(
        f"  t={t:5.1f}  utility={float(tuf(t)):6.2f}" for t in times
    )
    return (
        "figure1: sample task time-utility function\n"
        f"paper spot checks: U(20)={float(tuf(20.0)):.0f}, "
        f"U(47)={float(tuf(47.0)):.0f}\n" + rows
    )


def _figure2_text() -> str:
    from repro.core.dominance import dominates, nondominated_mask

    A, B, C = (5.0, 10.0), (7.0, 8.0), (3.0, 6.0)
    mask = nondominated_mask(np.array([A, B, C]))
    return (
        "figure2: solution dominance (energy, utility)\n"
        f"  A={A}, B={B}, C={C}\n"
        f"  A dominates B: {dominates(A, B)}\n"
        f"  A ~ C incomparable: {not dominates(A, C) and not dominates(C, A)}\n"
        f"  Pareto set mask: {mask.tolist()}"
    )


def reproduce_all(
    output_dir: Union[str, Path],
    scale: Optional[float] = None,
    base_seed: int = 2013,
    population_size: int = 100,
    workers: int = 0,
    transport: str = "auto",
    algorithm: str = "nsga2",
    progress: Optional[Callable[[str], None]] = print,
    obs: Optional["RunContext"] = None,
) -> Path:
    """Run the full reproduction and write artifacts to *output_dir*.

    Parameters
    ----------
    output_dir:
        Target directory (created if missing).
    scale:
        Generation scale versus the paper (default: ``REPRO_SCALE`` or
        the library default).  ``1.0`` = paper scale.
    base_seed:
        Master seed for every stochastic component.
    population_size:
        NSGA-II N for the figure runs.
    workers:
        Process-pool size for each figure's five populations (0 =
        sequential).  Parallel figure runs publish each data set's
        arrays into shared memory once and attach workers zero-copy;
        results are bit-identical to sequential runs.
    transport:
        Parallel array transport (``"auto"``/``"shm"``/``"pickle"``).
    algorithm:
        Registered optimizer name driving every figure run (default
        ``"nsga2"``; see :func:`repro.core.registry.available_algorithms`).
    progress:
        Callable receiving status lines (``None`` silences).
    obs:
        Optional :class:`~repro.obs.context.RunContext` threaded into
        every figure's populations (spans, metrics, events); flushed by
        the caller.

    Returns
    -------
    The output directory path.
    """
    if obs is None:
        from repro.obs.context import NULL_CONTEXT

        obs = NULL_CONTEXT
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    say = progress if progress is not None else (lambda _msg: None)
    effective_scale = default_scale() if scale is None else scale
    t0 = time.perf_counter()
    manifest: list[str] = [
        "repro full reproduction",
        f"scale: {effective_scale} (1.0 = paper generation counts)",
        f"base seed: {base_seed}",
        f"population size: {population_size}",
        f"algorithm: {algorithm}",
        f"workers: {workers} (CPUs: {os.cpu_count()})",
        "",
    ]

    say("tables I-III ...")
    with obs.span("reproduce.tables"):
        (out / "tables.txt").write_text(
            "\n\n".join(
                [render_table1(), render_table2(), render_table3()]
            ) + "\n"
        )
    manifest.append("tables.txt: Tables I, II, III")

    say("figure 1 (time-utility function) ...")
    (out / "figure1.txt").write_text(_figure1_text() + "\n")
    manifest.append("figure1.txt: TUF staircase with paper spot checks")

    say("figure 2 (dominance) ...")
    (out / "figure2.txt").write_text(_figure2_text() + "\n")
    manifest.append("figure2.txt: dominance example")

    drivers = (("figure3", figure3), ("figure4", figure4), ("figure6", figure6))
    fig4_result = None
    for name, driver in drivers:
        say(f"{name} (5 seeded {algorithm} populations) ...")
        t_figure = time.perf_counter()
        result = driver(
            scale=effective_scale,
            base_seed=base_seed,
            population_size=population_size,
            workers=workers,
            transport=transport,
            algorithm=algorithm,
            obs=obs,
        )
        if name == "figure4":
            fig4_result = result
        save_figure_result(result, out / f"{name}.json")
        figure_to_csv(result, out / f"{name}.csv")
        figure_to_svg(result, out)
        (out / f"{name}.txt").write_text(result.render(plot=True) + "\n")

        # Self-audit: check the paper's claims on this very run.
        from repro.experiments.claims import verify_paper_claims

        claims = verify_paper_claims(result)
        claim_lines = [
            f"{'PASS' if c.passed else 'FAIL'}  {c.claim}: {c.detail}"
            for c in claims
        ]
        (out / f"{name}_claims.txt").write_text("\n".join(claim_lines) + "\n")
        n_pass = sum(c.passed for c in claims)
        manifest.append(
            f"{name}.json/.csv/.txt + {name}_subplot*.svg: checkpoints "
            f"{result.checkpoints} (paper {result.paper_checkpoints}); "
            f"claims {n_pass}/{len(claims)} PASS; "
            f"wall time {time.perf_counter() - t_figure:.1f} s"
        )

    say("figure 5 (max utility-per-energy region) ...")
    fig5 = figure5(figure4_result=fig4_result)
    (out / "figure5.txt").write_text(fig5.render() + "\n")
    manifest.append("figure5.txt: efficiency-region analysis of figure4")

    manifest.append("")
    manifest.append(f"total wall time: {time.perf_counter() - t0:.1f} s")
    (out / "MANIFEST.txt").write_text("\n".join(manifest) + "\n")
    say(f"done: {out}")
    return out
