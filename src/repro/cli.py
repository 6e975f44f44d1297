"""``repro-analyze`` — command-line front end.

Subcommands:

* ``tables`` — print Tables I, II, III.
* ``figure`` — reproduce one of Figures 3/4/5/6 (optionally save JSON
  results, tidy CSV, and per-subplot SVG plots).
* ``seeds`` — evaluate the four seeding heuristics on a data set.
* ``datagen`` — expand the historical matrices and report the
  heterogeneity preservation (mvsk of real vs synthetic).
* ``system`` — describe a data set's system and save it as JSON.
* ``gantt`` — render a heuristic's schedule as a text Gantt chart.
* ``repetitions`` — run R independent optimizer repetitions and report
  attainment surfaces and hypervolume spread.
* ``resume`` — continue an interrupted ``report`` experiment from its
  durable optimizer checkpoints (see docs/fault_tolerance.md).
* ``portfolio`` — run every registered algorithm head-to-head on one
  data set and score the fronts against the exact contention-free
  baseline (see docs/algorithms.md).
* ``trace`` — summarize a recorded observability directory (slowest
  spans, GA stage breakdown, cache hit rate, retry/fault timeline; see
  docs/observability.md).
* ``grid`` — inspect (``status``) or re-drive (``resume``,
  ``retry-quarantined``) a durable grid directory written via
  ``--grid-dir`` (see docs/fault_tolerance.md).

Execution subcommands (``report``, ``resume``, ``reproduce-all``,
``repetitions``) accept ``--obs-dir`` to record a run-scoped trace /
metrics / event-log directory, ``--obs-level`` to pick its detail
level (``debug`` adds per-generation stage spans), and ``--algorithm``
to choose the optimizer from the portfolio registry.  ``report``,
``repetitions``, and ``portfolio`` accept ``--grid-dir`` to journal
every cell into a durable manifest so an interrupted sweep can be
re-driven with ``repro-analyze grid resume``.

Examples::

    repro-analyze tables
    repro-analyze figure --name figure3 --scale 0.01 --plot
    repro-analyze seeds --dataset 2
    repro-analyze datagen --new-task-types 25 --seed 7
    repro-analyze report --dataset 1 --obs-dir obs/run1
    repro-analyze report --dataset 1 --algorithm spea2
    repro-analyze portfolio --dataset 1 --generations 20
    repro-analyze repetitions --dataset 1 --workers 4 --grid-dir grids/r1
    repro-analyze grid status grids/r1
    repro-analyze grid resume grids/r1 --workers 4
    repro-analyze trace obs/run1
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

# The parser needs these (the registry already loads the evaluator);
# each handler imports its own driver, so a verb loads only its layers.
from repro.core.registry import available_algorithms
from repro.heuristics import SEEDING_HEURISTICS
from repro.sim.evaluator import ScheduleEvaluator

__all__ = ["main"]

_OBS_LEVELS = ("debug", "info", "warning", "error")


def _bundle(args: argparse.Namespace):
    """The ``--dataset`` bundle built from ``--seed``."""
    from repro.experiments.datasets import DATASET_BUILDERS

    return DATASET_BUILDERS[f"dataset{args.dataset}"](args.seed)


def _obs_from_args(args: argparse.Namespace, **fields):
    """Build a RunContext from ``--obs-dir``/``--obs-level`` (or None)."""
    obs_dir = getattr(args, "obs_dir", None)
    if obs_dir is None:
        return None
    from repro.obs.context import RunContext

    return RunContext.create(
        obs_dir=obs_dir, level=getattr(args, "obs_level", "info"), **fields
    )


def _flush_obs(obs) -> None:
    if obs is not None:
        out = obs.flush()
        if out is not None:
            print(f"observability artifacts: {out}")


def _cmd_tables(_args: argparse.Namespace) -> int:
    from repro.experiments.tables import render_table1, render_table2, render_table3

    print(render_table1())
    print()
    print(render_table2())
    print()
    print(render_table3())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    import repro.experiments.figures as figures
    from repro.experiments.io import save_figure_result

    driver = getattr(figures, args.name)
    result = driver(scale=args.scale, base_seed=args.seed)
    if args.name == "figure5":
        print(result.render())
        return 0
    print(result.render(plot=args.plot))
    if args.output:
        save_figure_result(result, args.output)
        print(f"\nsaved: {args.output}")
    if args.csv:
        from repro.analysis.export import figure_to_csv

        figure_to_csv(result, args.csv)
        print(f"saved: {args.csv}")
    if args.svg_dir:
        from repro.analysis.export import figure_to_svg

        for path in figure_to_svg(result, args.svg_dir):
            print(f"saved: {path}")
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    from repro.sim.events import simulate_reference
    from repro.sim.gantt import render_gantt

    bundle = _bundle(args)
    heuristic = SEEDING_HEURISTICS[args.heuristic]()
    alloc = heuristic.build(bundle.system, bundle.trace)
    ref = simulate_reference(bundle.system, bundle.trace, alloc)
    print(
        f"{heuristic.name} on {bundle.name}: energy "
        f"{ref.energy / 1e6:.3f} MJ, utility {ref.utility:.1f}"
    )
    print(render_gantt(ref, system=bundle.system, width=args.width,
                       max_machines=args.max_machines))
    return 0


def _cmd_report(args: argparse.Namespace, resume: bool = False) -> int:
    from repro.analysis.summary import experiment_report
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import RetryPolicy, run_seeded_populations

    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    grid_dir = getattr(args, "grid_dir", None)
    if resume and checkpoint_dir is None and grid_dir is None:
        print("resume requires --checkpoint-dir or --grid-dir",
              file=sys.stderr)
        return 2
    bundle = _bundle(args)
    config = ExperimentConfig.for_paper_checkpoints(
        [100, 1000, 10000],
        scale=args.scale,
        population_size=args.population,
        base_seed=args.seed,
        algorithm=args.algorithm,
    )
    obs = _obs_from_args(args, command="resume" if resume else "report",
                         seed=args.seed)
    try:
        result = run_seeded_populations(
            bundle,
            config,
            workers=args.workers,
            transport=args.transport,
            retry=RetryPolicy(max_attempts=args.max_attempts,
                              timeout=args.timeout),
            strict=args.strict,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            grid_dir=grid_dir,
            obs=obs,
        )
    finally:
        _flush_obs(obs)
    print(experiment_report(result))
    for failure in result.failures:
        print(
            f"FAILED population {failure.label!r} after {failure.attempts} "
            f"attempt(s): {failure.error}",
            file=sys.stderr,
        )
    return 1 if result.failures else 0


def _cmd_resume(args: argparse.Namespace) -> int:
    return _cmd_report(args, resume=True)


def _cmd_reproduce_all(args: argparse.Namespace) -> int:
    from repro.experiments.reproduce import reproduce_all

    obs = _obs_from_args(args, command="reproduce-all", seed=args.seed)
    try:
        reproduce_all(
            args.output,
            scale=args.scale,
            base_seed=args.seed,
            population_size=args.population,
            workers=args.workers,
            transport=args.transport,
            algorithm=args.algorithm,
                obs=obs,
        )
    finally:
        _flush_obs(obs)
    return 0


def _cmd_repetitions(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.experiments.repetitions import run_repetitions

    bundle = _bundle(args)
    obs = _obs_from_args(args, command="repetitions", seed=args.seed)
    try:
        result = run_repetitions(
            bundle,
            repetitions=args.repetitions,
            generations=args.generations,
            population_size=args.population,
            seed_label=args.population_label,
            base_seed=args.seed,
            workers=args.workers,
            transport=args.transport,
            algorithm=args.algorithm,
                grid_dir=getattr(args, "grid_dir", None),
            obs=obs,
        )
    finally:
        _flush_obs(obs)
    rows = []
    for name in ("best", "median", "worst"):
        surface = result.attainment[name]
        rows.append(
            [
                name,
                surface.size,
                f"{surface.energy_range[0] / 1e6:.3f}-"
                f"{surface.energy_range[1] / 1e6:.3f}",
                f"{surface.utility_range[0]:.1f}-"
                f"{surface.utility_range[1]:.1f}",
            ]
        )
    print(
        format_table(
            ["attainment", "points", "energy (MJ)", "utility"],
            rows,
            title=f"{args.repetitions} {args.algorithm} repetitions of the "
            f"'{args.population_label}' population on {bundle.name}",
        )
    )
    hv = result.hypervolume
    print(
        f"hypervolume: mean {hv.mean:.4g} +- {hv.std:.2g} "
        f"(range {hv.minimum:.4g}..{hv.maximum:.4g})"
    )
    return 0


def _cmd_portfolio(args: argparse.Namespace) -> int:
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.portfolio import run_portfolio

    bundle = _bundle(args)
    config = ExperimentConfig(
        population_size=args.population,
        generations=args.generations,
        checkpoints=(args.generations,),
        base_seed=args.seed,
    )
    obs = _obs_from_args(args, command="portfolio", seed=args.seed)
    try:
        result = run_portfolio(
            bundle,
            config,
            algorithms=args.algorithms,
            exact_epsilon=None if args.no_exact else args.exact_epsilon,
            grid_dir=getattr(args, "grid_dir", None),
            obs=obs,
        )
    finally:
        _flush_obs(obs)
    print(result.render())
    best = result.comparison.best_by_hypervolume()
    print(f"best hypervolume: {best.algorithm} ({best.hypervolume:.4g})")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    from repro.errors import GridManifestError
    from repro.experiments.grid import grid_status, render_status, resume_grid

    try:
        if args.grid_command == "status":
            print(render_status(grid_status(args.grid_dir)))
            return 0
        if args.grid_command == "watch":
            from repro.obs.watch import watch_grid

            try:
                snapshot = watch_grid(
                    args.grid_dir,
                    obs_dir=args.obs_dir,
                    once=args.once,
                    interval=args.interval,
                    prom_path=args.prom,
                )
            except KeyboardInterrupt:
                return 130
            counts = snapshot.get("counts", {})
            done = counts.get("done", 0)
            return 0 if done == snapshot.get("total") else 1
        from repro.experiments.runner import RetryPolicy

        obs = _obs_from_args(args, command=f"grid-{args.grid_command}")
        try:
            resume_grid(
                args.grid_dir,
                workers=args.workers,
                transport=args.transport,
                retry=RetryPolicy(max_attempts=args.max_attempts,
                                  timeout=args.timeout),
                retry_quarantined=args.grid_command == "retry-quarantined",
                obs=obs,
            )
        finally:
            _flush_obs(obs)
        status = grid_status(args.grid_dir)
        print(render_status(status))
        return 0 if status.complete else 1
    except GridManifestError as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _cmd_seeds(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table

    bundle = _bundle(args)
    evaluator = ScheduleEvaluator(bundle.system, bundle.trace)
    rows = []
    for name, cls in SEEDING_HEURISTICS.items():
        energy, utility = evaluator.objectives(cls().build(bundle.system, bundle.trace))
        rows.append([name, f"{energy / 1e6:.4f}", f"{utility:.2f}",
                     f"{utility / energy * 1e6:.3f}"])
    print(
        format_table(
            ["heuristic", "energy (MJ)", "utility", "utility/MJ"],
            rows,
            title=f"Seeding heuristics on {bundle.name} "
            f"({bundle.num_tasks} tasks, {bundle.system.num_machines} machines)",
        )
    )
    return 0


def _cmd_datagen(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.data.heterogeneity import mvsk
    from repro.data.historical import HISTORICAL_EPC, HISTORICAL_ETC
    from repro.data.synthetic import expand_matrix_pair

    etc_exp, epc_exp = expand_matrix_pair(
        HISTORICAL_ETC, HISTORICAL_EPC, args.new_task_types, seed=args.seed
    )
    rows = []
    for label, exp in (("ETC", etc_exp), ("EPC", epc_exp)):
        real = exp.row_average_stats
        synth = mvsk(exp.new_rows().mean(axis=1))
        rows.append([f"{label} real rows", f"{real.mean:.2f}", f"{real.cov:.3f}",
                     f"{real.skewness:.3f}", f"{real.kurtosis:.3f}"])
        rows.append([f"{label} synthetic rows", f"{synth.mean:.2f}", f"{synth.cov:.3f}",
                     f"{synth.skewness:.3f}", f"{synth.kurtosis:.3f}"])
    print(
        format_table(
            ["collection (row averages)", "mean", "CV", "skewness", "kurtosis"],
            rows,
            title=f"Heterogeneity preservation, {args.new_task_types} new task types",
        )
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.errors import ObservabilityError
    from repro.obs.report import resolve_run_dir, trace_report
    from repro.obs.schema import validate_run_dir

    if args.validate:
        # Parallel runs: validate the collector's merged multi-process
        # view when one exists (strictly more complete than the
        # coordinator-only artifacts).
        run_dir = resolve_run_dir(args.run_dir)
        problems = validate_run_dir(run_dir)
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
        print(f"{run_dir}: valid observability directory")
        return 0
    try:
        print(trace_report(args.run_dir, top=args.top))
    except ObservabilityError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _cmd_system(args: argparse.Namespace) -> int:
    from repro.model.serialization import save_system

    bundle = _bundle(args)
    print(bundle.system.describe())
    print(f"trace: {bundle.num_tasks} tasks over {bundle.horizon_seconds:.0f} s")
    if args.output:
        save_system(bundle.system, args.output)
        print(f"saved: {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Utility/energy trade-off analysis framework "
        "(Friese et al., IPDPSW 2013 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables I, II, III")

    p_fig = sub.add_parser("figure", help="reproduce a paper figure")
    p_fig.add_argument(
        "--name", choices=["figure3", "figure4", "figure5", "figure6"],
        default="figure3",
    )
    p_fig.add_argument("--scale", type=float, default=None,
                       help="generation scale vs paper (default: REPRO_SCALE or 0.002)")
    p_fig.add_argument("--seed", type=int, default=2013)
    p_fig.add_argument("--plot", action="store_true", help="ASCII scatter plots")
    p_fig.add_argument("--output", default=None, help="save result JSON here")
    p_fig.add_argument("--csv", default=None, help="save tidy CSV here")
    p_fig.add_argument("--svg-dir", default=None,
                       help="write per-subplot SVG plots into this directory")

    p_seeds = sub.add_parser("seeds", help="evaluate the seeding heuristics")
    p_seeds.add_argument("--dataset", choices=["1", "2", "3"], default="1")
    p_seeds.add_argument("--seed", type=int, default=2013)

    p_gen = sub.add_parser("datagen", help="synthetic-data heterogeneity check")
    p_gen.add_argument("--new-task-types", type=int, default=25)
    p_gen.add_argument("--seed", type=int, default=2013)

    p_sys = sub.add_parser("system", help="describe / export a data set system")
    p_sys.add_argument("--dataset", choices=["1", "2", "3"], default="1")
    p_sys.add_argument("--seed", type=int, default=2013)
    p_sys.add_argument("--output", default=None, help="save system JSON here")

    p_gantt = sub.add_parser("gantt", help="text Gantt chart of a heuristic schedule")
    p_gantt.add_argument("--dataset", choices=["1", "2", "3"], default="1")
    p_gantt.add_argument(
        "--heuristic",
        choices=sorted(SEEDING_HEURISTICS),
        default="min-min-completion-time",
    )
    p_gantt.add_argument("--seed", type=int, default=2013)
    p_gantt.add_argument("--width", type=int, default=100)
    p_gantt.add_argument("--max-machines", type=int, default=None)

    def _add_obs_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--obs-dir", default=None,
                       help="record a run-scoped observability directory "
                       "(trace.jsonl, events.jsonl, metrics.json/.prom) "
                       "readable by 'repro-analyze trace'")
        p.add_argument("--obs-level", choices=_OBS_LEVELS, default="info",
                       help="observability detail; 'debug' adds "
                       "per-generation stage spans")

    def _add_algorithm_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--algorithm", choices=available_algorithms(),
                       default="nsga2",
                       help="optimizer from the portfolio registry "
                       "(default: nsga2)")

    def _add_workers_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=0,
                       help="process-pool size (0 = sequential); parallel "
                       "runs share dataset arrays zero-copy and are "
                       "bit-identical to sequential ones")
        p.add_argument("--transport", choices=["auto", "shm", "pickle"],
                       default="auto",
                       help="parallel array transport: shared memory when "
                       "available (auto), forced shm, or pickle fallback")

    def _add_grid_dir_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--grid-dir", default=None,
                       help="durable grid directory (manifest + result "
                       "store); interrupted runs continue with "
                       "'repro-analyze grid resume'")

    def _add_execution_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", choices=["1", "2", "3"], default="1")
        p.add_argument("--scale", type=float, default=None)
        p.add_argument("--population", type=int, default=60)
        _add_workers_args(p)
        p.add_argument("--seed", type=int, default=2013)
        p.add_argument("--checkpoint-dir", default=None,
                       help="durable NSGA-II checkpoints (one file per "
                       "population) for crash recovery")
        _add_grid_dir_arg(p)
        p.add_argument("--max-attempts", type=int, default=3,
                       help="attempts per population before recording a "
                       "failure")
        p.add_argument("--timeout", type=float, default=None,
                       help="per-attempt timeout in seconds (parallel only)")
        p.add_argument("--strict", action="store_true",
                       help="fail fast on the first exhausted population "
                       "instead of degrading gracefully")
        _add_algorithm_arg(p)
        _add_obs_args(p)

    p_report = sub.add_parser(
        "report", help="full experiment report for one data set"
    )
    _add_execution_args(p_report)

    p_resume = sub.add_parser(
        "resume",
        help="resume an interrupted report experiment from --checkpoint-dir",
    )
    _add_execution_args(p_resume)

    p_all = sub.add_parser(
        "reproduce-all",
        help="run every table and figure, writing artifacts to a directory",
    )
    p_all.add_argument("--output", default="reproduction")
    p_all.add_argument("--scale", type=float, default=None,
                       help="generation scale vs paper (1.0 = paper scale)")
    p_all.add_argument("--seed", type=int, default=2013)
    p_all.add_argument("--population", type=int, default=100)
    _add_workers_args(p_all)
    _add_algorithm_arg(p_all)
    _add_obs_args(p_all)

    p_rep = sub.add_parser(
        "repetitions", help="multi-repetition NSGA-II statistics"
    )
    p_rep.add_argument("--dataset", choices=["1", "2", "3"], default="1")
    p_rep.add_argument("--repetitions", type=int, default=5)
    p_rep.add_argument("--generations", type=int, default=50)
    p_rep.add_argument("--population", type=int, default=50)
    p_rep.add_argument(
        "--population-label",
        default="random",
        choices=["random", *sorted(SEEDING_HEURISTICS)],
    )
    p_rep.add_argument("--seed", type=int, default=2013)
    _add_workers_args(p_rep)
    _add_algorithm_arg(p_rep)
    _add_grid_dir_arg(p_rep)
    _add_obs_args(p_rep)

    p_port = sub.add_parser(
        "portfolio",
        help="head-to-head algorithm comparison with distance-to-optimal",
    )
    p_port.add_argument("--dataset", choices=["1", "2", "3"], default="1")
    p_port.add_argument("--generations", type=int, default=20)
    p_port.add_argument("--population", type=int, default=50)
    p_port.add_argument("--seed", type=int, default=2013)
    p_port.add_argument(
        "--algorithms", nargs="+", choices=available_algorithms(),
        default=None, metavar="NAME",
        help=f"subset to run (default: all of {', '.join(available_algorithms())})",
    )
    p_port.add_argument("--exact-epsilon", type=float, default=0.05,
                        help="utility resolution of the exact baseline "
                        "(relative; bounds its error — see docs/algorithms.md)")
    p_port.add_argument("--no-exact", action="store_true",
                        help="skip the exact baseline and its "
                        "distance-to-optimal columns")
    _add_grid_dir_arg(p_port)
    _add_obs_args(p_port)

    p_grid = sub.add_parser(
        "grid",
        help="inspect or re-drive a durable grid directory "
        "(see docs/fault_tolerance.md)",
    )
    grid_sub = p_grid.add_subparsers(dest="grid_command", required=True)
    g_status = grid_sub.add_parser(
        "status", help="cell lifecycle counts and quarantined cells"
    )
    g_status.add_argument("grid_dir", help="directory holding manifest.jsonl")
    g_watch = grid_sub.add_parser(
        "watch",
        help="live dashboard over the grid journal and worker telemetry",
    )
    g_watch.add_argument("grid_dir", help="directory holding manifest.jsonl")
    g_watch.add_argument("--obs-dir", default=None,
                         help="the run's observability directory "
                         "(default: <grid_dir>/obs when present)")
    g_watch.add_argument("--once", action="store_true",
                         help="render one frame and exit")
    g_watch.add_argument("--interval", type=float, default=2.0,
                         help="refresh period in seconds (live mode)")
    g_watch.add_argument("--prom", default=None,
                         help="also write aggregated grid metrics to this "
                         "Prometheus textfile on every refresh")
    for verb, verb_help in (
        ("resume", "re-drive every unfinished cell of an interrupted grid"),
        ("retry-quarantined", "requeue quarantined cells, then resume"),
    ):
        g_run = grid_sub.add_parser(verb, help=verb_help)
        g_run.add_argument("grid_dir",
                           help="directory holding manifest.jsonl")
        _add_workers_args(g_run)
        g_run.add_argument("--max-attempts", type=int, default=3,
                           help="attempts per cell before recording a "
                           "failure")
        g_run.add_argument("--timeout", type=float, default=None,
                           help="per-attempt timeout in seconds "
                           "(parallel only)")
        _add_obs_args(g_run)

    p_trace = sub.add_parser(
        "trace",
        help="summarize a recorded observability directory",
    )
    p_trace.add_argument("run_dir",
                         help="directory written via --obs-dir")
    p_trace.add_argument("--top", type=int, default=10,
                         help="how many slowest spans to list")
    p_trace.add_argument("--validate", action="store_true",
                         help="only validate the artifacts against the "
                         "repro.obs/1 schema")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "tables": _cmd_tables,
        "figure": _cmd_figure,
        "seeds": _cmd_seeds,
        "datagen": _cmd_datagen,
        "system": _cmd_system,
        "gantt": _cmd_gantt,
        "repetitions": _cmd_repetitions,
        "reproduce-all": _cmd_reproduce_all,
        "portfolio": _cmd_portfolio,
        "report": _cmd_report,
        "resume": _cmd_resume,
        "trace": _cmd_trace,
        "grid": _cmd_grid,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
