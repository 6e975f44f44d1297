"""Repository benchmark: four workloads, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py                       # every workload
    python3 perfbench/run.py --workload fig3-ds1 --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve-ds1 --trace 1
    python3 perfbench/run.py --smoke               # tiny sizes, checks only
    python3 perfbench/run.py --workload grid-ds1 --steadiness 10

Each measured run is a fresh child process (``child.py``): it imports
``repro``, builds the inputs from the seed (``setup_s``), runs the
workload's timed call (``run_s``), and checks the outputs.  This
process starts children one after another until ``--seconds`` have
passed (at least three), then reports the median of each timing over
the children; the deterministic results (hypervolume, utility, energy)
must agree bit for bit across them.  Times are scaled to a reference
speed measured in each child (``workloads.reference_seconds``), which
divides out the drift of a shared machine; the unscaled wall medians
are printed beside them.

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` adds one traced child after the untraced ones and prints
every per-layer metric, measured by wrappers set from this directory on
the program's classes and modules (see ``layers.py``), with the trace
written to ``perfbench/out/``.

``--steadiness N`` runs the benchmark N times, each in a fresh process
with the next seed, and prints for every end-to-end metric its median,
quartiles and spread (interquartile range ÷ median) next to its bound.

BLAS and OpenMP pools are pinned to one thread in every child.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is non-zero when any
correctness check fails.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, environment, params_for  # noqa: E402

#: Fewest child runs whose medians one benchmark run reports.
MIN_CHILDREN = 3
#: Seconds one benchmark run may take, children included, before it
#: stops with an error instead of a result.
RUN_BUDGET_S = 170
#: Thread pools pinned in every child, so runs do not depend on how
#: many cores BLAS or OpenMP would otherwise grab.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: Largest share of the traced run_s that no named layer may explain.
MAX_OTHER_SHARE = 0.10
#: Reported as the median over a run's untraced children; the times
#: among them are scaled to the reference speed (see
#: ``workloads.reference_seconds``), with the unscaled wall medians
#: printed beside them.
TIMINGS = ("setup_s", "run_s", "step_p50_ms", "step_p95_ms", "peak_rss_mb")
#: Deterministic results (unit, better): equal across every child of
#: one seed.  They are checked bit for bit, not bounded: they describe
#: the inputs as much as the program, and move by a third between seeds.
RESULTS = {"front_hypervolume": ("ratio", "higher"),
           "utility_earned": ("utility", "higher"),
           "energy_mj": ("MJ", "lower")}


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program or definition)."""


def load_definition() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchmarkError(f"no benchmark definition at {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- child processes -------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    for name in PINNED_THREADS:
        env[name] = "1"
    # Fixed string hashing keeps allocation order, and with it the
    # garbage collector's timing and peak RSS, the same run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, deadline: float, *, trace=False,
              smoke=False, full_checks=False, trace_file=None) -> dict:
    """One fresh process measuring one run; returns its JSON document.

    The child is stopped, and the run fails, at *deadline* (a
    ``time.monotonic()`` reading)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    if full_checks:
        cmd.append("--full-checks")
    if trace_file:
        cmd += ["--trace-file", trace_file]
    # A session of its own, so a child that overruns is stopped together
    # with the pool workers it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{workload} run exceeded {RUN_BUDGET_S} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} child exited {proc.returncode}:\n"
                             f"{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def warm_up(deadline: float) -> None:
    """Compile the program's bytecode once, outside every measurement:
    users do not pay it on each run."""
    code = ("import sys; sys.path.insert(0, 'src'); "
            "import repro.experiments.figures, repro.experiments.repetitions, "
            "repro.service.dispatch")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise BenchmarkError(f"cannot import the program:\n{proc.stderr[-4000:]}")


# -- one benchmark run -------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool, deadline: float) -> dict:
    """Run children for *seconds* (plus one traced child with *trace*)
    and aggregate them into one result."""
    children = []
    start = time.perf_counter()
    while True:
        children.append(run_child(workload, seed, deadline, smoke=smoke,
                                  full_checks=not children))
        if smoke or (len(children) >= MIN_CHILDREN
                     and time.perf_counter() - start >= seconds):
            break
    everyone = list(children)
    trace_file = None
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_file = os.path.join(OUT_DIR, f"{workload}-seed{seed}.trace.jsonl")
        everyone.append(run_child(workload, seed, deadline, trace=True,
                                  smoke=smoke, trace_file=trace_file))

    checks = {}
    for doc in everyone:
        for name, ok in doc["checks"].items():
            checks[name] = checks.get(name, True) and bool(ok)
    # Identical inputs must give identical results: across untraced
    # children and between the timed and the traced runs.
    checks["results_bit_identical"] = all(
        doc[key] == children[0][key] for doc in everyone for key in RESULTS
    )
    end_to_end = {key: statistics.median(doc[key] for doc in children)
                  for key in TIMINGS}
    end_to_end.update({key: children[0][key] for key in RESULTS})
    wall = {key: statistics.median(doc["wall"][key] for doc in children)
            for key in children[0]["wall"]}
    attempted = sum(doc["attempted"] for doc in everyone)
    failed = sum(doc["failed"] for doc in everyone)
    result = {
        "workload": workload,
        "params": children[0]["params"],
        "children": len(children),
        "steps_per_child": children[0]["steps"],
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "end_to_end": end_to_end,
        "wall": wall,
    }
    if trace:
        traced = everyone[-1]
        layer = dict(traced["layers"])
        layer["trace.overhead_share"] = traced["run_s"] / end_to_end["run_s"] - 1.0
        if not smoke:
            # Named layers must explain the run; smoke runs are too
            # short for fixed costs to stay under the limit.
            checks["layers_cover_run"] = layer["other_share"] <= MAX_OTHER_SHARE
        result["per_layer"] = layer
        result["trace_file"] = os.path.relpath(trace_file, ROOT)
    return result


# -- reporting -------------------------------------------------------------------


def print_result(result: dict, definition: dict, trace: bool) -> dict:
    """Print one workload's tables; returns its metrics for the JSON line."""
    w = result["workload"]
    samples = {"setup_s": result["children"], "run_s": result["children"],
               "peak_rss_mb": result["children"]}
    print(f"== {w}  params={json.dumps(result['params'])}  "
          f"children={result['children']}  steps/child={result['steps_per_child']}")
    print(f"{'metric':<32}{'value':>16}  {'unit':<8}{'better':<8}{'bound':>6}  "
          f"samples  {'wall (unscaled)':>15}")
    metrics = {}
    for spec in definition["end_to_end"]:
        name = spec["name"]
        value = result["end_to_end"][name]
        n = samples.get(name, result["children"] * result["steps_per_child"]
                        if name.startswith("step_") else 1)
        raw = result["wall"].get(name)
        print(f"{name:<32}{value:>16.6g}  {spec['unit']:<8}{spec['better']:<8}"
              f"{spec['bound']:>6}  {n:>7}  {'' if raw is None else f'{raw:>15.6g}'}")
        if not trace:
            metrics[name] = {"value": value, "unit": spec["unit"]}
    for name, (unit, better) in RESULTS.items():
        print(f"{name:<32}{result['end_to_end'][name]:>16.6g}  {unit:<8}{better:<8}"
              f"{'exact':>6}  {result['children']}")
    print(f"{'error_rate':<32}{result['error_rate']:>16.6g}  {'ratio':<8}{'lower':<8}"
          f"{'':>6}  {result['attempted']}")
    if "per_layer" in result:
        layer = result["per_layer"]
        mismatch = {s["name"] for s in definition["per_layer"]} ^ set(layer)
        if mismatch:
            raise BenchmarkError(f"per-layer metrics out of step with "
                                 f"BENCHMARK.json: {sorted(mismatch)}")
        print(f"-- per layer (traced run, {result['trace_file']})")
        for spec in definition["per_layer"]:
            name = spec["name"]
            print(f"{name:<32}{layer[name]:>16.6g}  {spec['unit']:<8}{spec['better']:<8}")
            if trace:
                metrics[name] = {"value": layer[name], "unit": spec["unit"]}
    failed = [name for name, ok in result["checks"].items() if not ok]
    print(f"checks: {len(result['checks']) - len(failed)}/{len(result['checks'])} passed"
          + (f"; FAILED: {', '.join(failed)}" if failed else ""))
    return metrics


def steadiness(args, definition: dict, names: list) -> int:
    """Run the benchmark ``args.steadiness`` times per workload, one
    fresh process and one seed each, and print each metric's spread."""
    os.makedirs(OUT_DIR, exist_ok=True)
    status = 0
    for w in names:
        runs = []
        for i in range(args.steadiness):
            seed = args.seed + i
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180)
            try:
                doc = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                doc = {}
            if proc.returncode != 0 or not doc.get("correct"):
                print(f"{w} seed {seed}: run failed (exit {proc.returncode})\n"
                      f"{proc.stderr[-2000:]}")
                status = 1
                continue
            runs.append({k: v["value"] for k, v in doc["metrics"].items()})
        print(f"== steadiness {w}: {len(runs)} runs, seeds {args.seed}.."
              f"{args.seed + args.steadiness - 1}, {args.seconds} s each")
        print(f"{'metric':<20}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
              f"{'bound':>7}  verdict")
        report = {}
        for spec in definition["end_to_end"]:
            name = spec["name"]
            values = [r[name] for r in runs]
            if len(values) < 2:
                continue
            q1, mid, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid if mid else float("inf")
            verdict = ("resolved" if spread < spec["bound"] / 3
                       else "within bound" if spread <= spec["bound"]
                       else "UNRESOLVED")
            print(f"{name:<20}{mid:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
                  f"{spec['bound']:>7}  {verdict}")
            report[name] = {"median": mid, "q1": q1, "q3": q3, "spread": spread,
                            "bound": spec["bound"], "values": values}
        with open(os.path.join(OUT_DIR, f"steadiness-{w}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({
                "environment": environment(), "workload": w,
                "params": params_for(w, False),
                "seeds": [args.seed, args.seed + args.steadiness - 1],
                "seconds": args.seconds, "runs": len(runs), "metrics": report,
            }, fh, indent=2)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the repro pipeline end to end and per layer.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one timed and one traced child, checks")
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run N seeds per workload and report spreads")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    trace = bool(args.trace) or args.smoke

    try:
        definition = load_definition()
        if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
            raise BenchmarkError(f"the program is not here: no src/repro under {ROOT}")
        if args.steadiness:
            return steadiness(args, definition, names)
        deadline = time.monotonic() + RUN_BUDGET_S * len(names)
        warm_up(deadline)
        env = dict(environment(), seed=args.seed, seconds=args.seconds)
        print("environment: " + json.dumps(env))
        metrics, correct, attempted, failed = {}, True, 0, 0
        for w in names:
            result = measure(w, args.seed, args.seconds, trace, args.smoke,
                             deadline)
            shown = print_result(result, definition, bool(args.trace))
            prefix = "" if len(names) == 1 else f"{w}/"
            metrics.update({prefix + k: v for k, v in shown.items()})
            correct &= all(result["checks"].values()) and result["failed"] == 0
            attempted += result["attempted"]
            failed += result["failed"]
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
