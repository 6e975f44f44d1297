"""One measured run of one workload, in a fresh process.

Started by ``run.py``; prints one JSON object on its last stdout line.
The set-up clock starts before ``repro`` (and NumPy) are imported, so
``setup_s`` covers the import plus building the inputs.  Times are
reported both as measured (``wall``) and scaled to the reference speed.

    python3 perfbench/child.py --workload fig3-ds1 --seed 2013 \\
        [--trace] [--smoke] [--full-checks] [--trace-file PATH]
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--full-checks", action="store_true")
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    import numpy as np

    params = workloads.params_for(args.workload, args.smoke)
    state = workloads.setup(args.workload, params, args.seed)
    setup_s = time.perf_counter() - T0
    reference = [workloads.reference_seconds()]

    tracer = None
    steps: list = []
    uninstall = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer)
        uninstall = tracer.uninstall
    elif args.workload != "serve-ds1":
        uninstall = layers.install_step_timer(steps)
    if uninstall is not None:
        layers.untraced_workers(uninstall)

    out = workloads.run(state, steps, tracer)
    peak = workloads.peak_rss_mb(include_children=args.workload == "grid-ds1")
    reference.append(workloads.reference_seconds())
    # Wall times scaled to the reference speed: the machine's speed
    # during this child, read before and after the run, divides out.
    scale = workloads.REF_NOMINAL_S / (sum(reference) / len(reference))
    if uninstall is not None:
        uninstall()
    if tracer is not None:
        if args.workload.startswith("fig"):
            steps[:] = [end - start for name, start, end, _ in tracer.spans
                        if name == "ga.generation"]
        elif args.workload == "grid-ds1":
            steps[:] = tracer.samples["repetition.run"]
    workloads.check(state, out, args.full_checks)

    wall = {
        "setup_s": setup_s,
        "run_s": out.run_s,
        "step_p50_ms": float(np.percentile(steps, 50)) * 1e3 if steps else 0.0,
        "step_p95_ms": float(np.percentile(steps, 95)) * 1e3 if steps else 0.0,
    }

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "params": params,
        "wall": wall,
        "reference_s": reference,
        **{key: value * scale for key, value in wall.items()},
        "steps": len(steps),
        "peak_rss_mb": peak,
        "front_hypervolume": workloads.front_hypervolume(state, out),
        "utility_earned": out.utility,
        "energy_mj": out.energy / 1e6,
        "attempted": out.attempted,
        "failed": out.failed,
        "checks": out.checks,
    }
    if tracer is not None:
        extra = dict(out.extra, **{"datasets.build_ms": state.dataset_s * 1e3})
        doc["layers"] = layers.layer_metrics(tracer, out.root, extra)
        if args.trace_file:
            tracer.write(args.trace_file, dict(
                workloads.environment(),
                **{k: doc[k] for k in ("workload", "seed", "params", "run_s")},
            ))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
