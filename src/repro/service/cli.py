"""``repro serve`` — run the online dispatch service from the shell.

Streams synthetic Poisson traffic (or replays a data set's recorded
trace) through :class:`~repro.service.dispatch.DispatchService` and
prints a JSON report: per-window dispatch summaries, sustained
throughput, dispatch-latency percentiles, and the final ε-Pareto
archive front.  Pass ``--obs-dir`` to record ``service.window`` spans
and the ``service_*`` metrics for ``repro-analyze trace``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.registry import available_algorithms
from repro.sim.evaluator import DEFAULT_KERNEL_METHOD

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.dispatch import ServiceResult

__all__ = ["main", "build_parser", "result_payload"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (currently one subcommand)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Online streaming dispatch service "
        "(see docs/online_service.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "serve",
        help="run the windowed online dispatch service over a task stream",
    )
    p.add_argument("--dataset", choices=["1", "2", "3"], default="1",
                   help="system model to dispatch onto (and, with "
                   "--source trace, the trace to replay)")
    p.add_argument("--source", choices=["synthetic", "trace"],
                   default="synthetic",
                   help="synthetic Poisson stream (default) or replay of "
                   "the data set's recorded trace")
    p.add_argument("--window", type=float, default=60.0,
                   help="dispatch window length in seconds (default: 60)")
    p.add_argument("--windows", type=int, default=10,
                   help="number of windows to serve (default: 10; "
                   "--source trace defaults to covering the trace)")
    p.add_argument("--arrival-rate", type=float, default=0.5,
                   help="mean arrivals per second for the synthetic "
                   "stream (default: 0.5)")
    p.add_argument("--energy-budget", type=float, default=None,
                   help="cumulative energy budget; the dispatcher picks "
                   "the max-utility Pareto point that fits (default: "
                   "unconstrained)")
    p.add_argument("--population", type=int, default=32,
                   help="per-window population size (default: 32)")
    p.add_argument("--generations", type=int, default=12,
                   help="per-window generations (default: 12)")
    p.add_argument("--algorithm", choices=available_algorithms(),
                   default="nsga2",
                   help="per-window optimizer (default: nsga2)")
    p.add_argument("--kernel-method",
                   choices=["fast", "reference", "batch", "batch-reference"],
                   default=DEFAULT_KERNEL_METHOD,
                   help="evaluation kernel; only 'batch' supports "
                   "cross-window queue-state reuse (default)")
    p.add_argument("--cold", action="store_true",
                   help="disable warm starts (fresh random population "
                   "every window) — the cold-restart baseline")
    p.add_argument("--carryover", type=int, default=16,
                   help="max chromosomes carried between windows "
                   "(default: 16)")
    p.add_argument("--compact-every", type=int, default=8,
                   help="ledger compaction period in windows, 0 = never "
                   "(default: 8)")
    p.add_argument("--seed", type=int, default=2013)
    p.add_argument("--obs-dir", default=None,
                   help="record observability artifacts "
                   "(service.window spans, service_* metrics)")
    p.add_argument("--obs-level", choices=["info", "debug"], default="info")
    p.add_argument("--output", default=None,
                   help="write the JSON report here instead of stdout")
    return parser


def result_payload(result: ServiceResult) -> dict:
    """JSON-ready report for a service run."""
    return {
        "windows": [
            {
                "index": r.index,
                "start": r.start,
                "end": r.end,
                "tasks": r.tasks,
                "evaluations": r.evaluations,
                "chosen_energy": r.chosen_energy,
                "chosen_utility": r.chosen_utility,
                "budget_exceeded": r.budget_exceeded,
                "dispatch_seconds": r.dispatch_seconds,
                "warm_seeds": r.warm_seeds,
                "kernel_adopted": r.kernel_adopted,
                "reuse_rate": r.reuse_rate,
                "compacted": r.compacted,
                "archive_size": r.archive_size,
            }
            for r in result.reports
        ],
        "tasks_dispatched": result.tasks_dispatched,
        "total_energy": result.total_energy,
        "total_utility": result.total_utility,
        "mean_flow_time_s": result.mean_flow_time,
        "wall_seconds": result.wall_seconds,
        "tasks_per_second": result.tasks_per_second,
        "dispatch_latency_p50_s": result.dispatch_latency(50),
        "dispatch_latency_p99_s": result.dispatch_latency(99),
        "archive_front": result.archive_points.tolist(),
    }


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.experiments.datasets import DATASET_BUILDERS
    from repro.obs.context import RunContext
    from repro.service.dispatch import DispatchService, ServiceConfig
    from repro.service.stream import ArrivalStream, windows_from_trace
    from repro.workload.generator import TaskTypeMix

    bundle = DATASET_BUILDERS[f"dataset{args.dataset}"](seed=args.seed)
    if args.source == "trace":
        batches = list(windows_from_trace(bundle.trace, args.window))
        if args.windows:
            batches = batches[: args.windows]
    else:
        stream = ArrivalStream(
            mix=TaskTypeMix.uniform(bundle.system.num_task_types),
            window=args.window,
            rate=args.arrival_rate,
            seed=args.seed,
        )
        batches = stream.windows(args.windows)

    obs = (
        RunContext.create(obs_dir=args.obs_dir, level=args.obs_level)
        if args.obs_dir else None
    )
    config = ServiceConfig(
        algorithm=args.algorithm,
        population_size=args.population,
        generations=args.generations,
        warm_start=not args.cold,
        carryover=args.carryover,
        energy_budget=args.energy_budget,
        kernel_method=args.kernel_method,
        compact_every=args.compact_every,
        seed=args.seed,
    )
    service = DispatchService(bundle.system, config, obs=obs)
    result = service.run(batches)
    if obs is not None:
        obs.flush()

    payload = result_payload(result)
    payload["config"] = {
        "dataset": args.dataset,
        "source": args.source,
        "window": args.window,
        "arrival_rate": args.arrival_rate,
        "energy_budget": args.energy_budget,
        "algorithm": args.algorithm,
        "population": args.population,
        "generations": args.generations,
        "warm_start": not args.cold,
        "kernel_method": args.kernel_method,
        "compact_every": args.compact_every,
        "seed": args.seed,
    }
    text = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro`` console script."""
    args = build_parser().parse_args(argv)
    return {"serve": _cmd_serve}[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    raise SystemExit(main())
