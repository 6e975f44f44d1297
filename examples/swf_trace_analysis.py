#!/usr/bin/env python
"""Analyzing a real(istic) HPC trace in Standard Workload Format.

The paper's framework is built to "take traces from any given system";
the de-facto archive format for HPC workloads is Feitelson's SWF.  This
example:

1. writes a small synthetic SWF file (stand-in for e.g. a parallel
   workload archive download — swap in any real ``.swf``);
2. imports it onto the data-set-1 hardware, deriving task types from
   runtime quantiles;
3. runs the bi-objective analysis on the imported trace;
4. prints the trade-off curve and a Gantt view of the min-min schedule.

Run:  python examples/swf_trace_analysis.py [path/to/trace.swf]
"""

import sys
from pathlib import Path

import numpy as np

from repro import dataset1, NSGA2, AlgorithmConfig, ScheduleEvaluator
from repro.analysis import ParetoFront
from repro.analysis.report import format_front
from repro.heuristics import MinMinCompletionTime
from repro.sim.gantt import gantt_entries, render_gantt
from repro.workload.importers import parse_swf, trace_from_swf


def write_demo_swf(path: Path, jobs: int = 180, seed: int = 17) -> None:
    """A plausible synthetic SWF file: diurnal submits, lognormal runtimes."""
    rng = np.random.default_rng(seed)
    submit = np.sort(rng.uniform(0, 6 * 3600, size=jobs))  # 6-hour window
    runtimes = rng.lognormal(mean=4.0, sigma=1.0, size=jobs)  # ~55 s median
    executables = rng.integers(1, 12, size=jobs)
    lines = ["; synthetic demo trace (SWF)", "; MaxJobs: %d" % jobs]
    for i in range(jobs):
        fields = [-1] * 18
        fields[0] = i + 1                       # job id
        fields[1] = int(submit[i])              # submit time
        fields[2] = 0                           # wait
        fields[3] = max(1, int(runtimes[i]))    # run time
        fields[4] = 1                           # processors
        fields[10] = 1                          # status: completed
        fields[13] = int(executables[i])        # application id
        lines.append(" ".join(str(f) for f in fields))
    path.write_text("\n".join(lines) + "\n")


def main(swf_path: str | None = None) -> None:
    if swf_path is None:
        swf_path = "/tmp/demo_trace.swf"
        write_demo_swf(Path(swf_path))
        print(f"wrote synthetic demo trace: {swf_path}")

    bundle = dataset1(seed=17)  # supplies the hardware + TUF policy
    jobs = parse_swf(swf_path)
    print(f"parsed {len(jobs)} SWF job records")

    trace = trace_from_swf(
        jobs,
        num_task_types=bundle.system.num_task_types,
        type_strategy="runtime-quantile",
        max_tasks=150,
        window=900.0,  # squeeze into the paper's 15-minute window
    )
    print(
        f"imported {trace.num_tasks} tasks; type histogram: "
        f"{trace.type_counts(bundle.system.num_task_types).tolist()}"
    )

    evaluator = ScheduleEvaluator(bundle.system, trace)
    seed_alloc = MinMinCompletionTime().build(bundle.system, trace)
    ga = NSGA2(
        evaluator, AlgorithmConfig(population_size=60), seeds=[seed_alloc],
        rng=17,
    )
    history = ga.run(generations=120)
    front = ParetoFront(points=history.final.front_points, label="swf-trace")
    print()
    print(format_front(front, max_rows=10))

    print("\nmin-min schedule on the imported trace:")
    gantt = gantt_entries(
        seed_alloc, evaluator.evaluate(seed_alloc), trace.arrival_times
    )
    print(render_gantt(gantt, system=bundle.system, width=90, max_machines=5))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
