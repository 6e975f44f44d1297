"""The four benchmark workloads: inputs, the timed call, and checks.

Each workload builds its inputs from the seed alone, runs one timed
call (or, for the service, one closed loop of calls), and returns the
outcome the end-to-end metrics and the correctness checks read.
``repro`` is imported inside :func:`setup`, so the import is part of
the set-up time the child process measures.

Why these four (sizes are per run of one child process):

* ``fig3-ds1`` — the paper's headline run.  The evaluator's batch
  kernel with warm queue-state caches is most of it and the core's
  sort, crowding and variation most of the rest, so a ``core`` change
  shows here.
* ``fig6-ds3`` — a large working set (4000 tasks × 30 machines).  The
  evaluator runs cold for the first generations and heuristic seeding
  is a sizeable share, while core work is small at population 40: a
  ``sim`` or ``heuristics`` change shows here and a ``core`` change
  should not.
* ``serve-ds1`` — the only workload through ``repro.service``.  At 0.05
  tasks/s the backlog stays flat (about 16 active tasks) on every seed
  tried, so per-window latency does not depend on how long the run is.
  At 0.1 tasks/s it is flat on some seeds (about 53 tasks) but grows
  linearly on others (40 to 256 tasks over 400 windows on seed 1): the
  max-utility dispatch parks tasks whose utility has decayed on queues
  that never drain.  At 0.35 tasks/s and above the ledger keeps nearly
  every task ever dispatched on every seed.  Closed loop: the caller
  hands over the next window when the previous dispatch returns.
* ``grid-ds1`` — the only workload through ``repro.parallel``
  (``publish_dataset``, ``ParallelEngine``), with one worker per CPU.
  Per-cell compute matches ``fig3-ds1``, so a ``parallel`` change shows
  only here.
"""

from __future__ import annotations

import os
import resource
import sys
import time
from contextlib import contextmanager

import numpy as np

#: Workload parameters at benchmark size and at smoke size (why each
#: workload exists: the module docstring and ``BENCHMARK.json``).
WORKLOADS = {
    "fig3-ds1": {
        "full": {"checkpoints": (2, 20, 60, 200), "population": 100},
        "smoke": {"checkpoints": (1, 3), "population": 10},
    },
    "fig6-ds3": {
        "full": {"checkpoints": (1, 5, 20, 60), "population": 40},
        "smoke": {"checkpoints": (1, 2), "population": 6},
    },
    "serve-ds1": {
        "full": {"windows": 400, "window_s": 60.0, "rate": 0.05},
        "smoke": {"windows": 24, "window_s": 60.0, "rate": 0.05},
    },
    "grid-ds1": {
        "full": {"repetitions": 16, "generations": 100, "population": 60},
        "smoke": {"repetitions": 4, "generations": 4, "population": 10},
    },
}

#: A backlog whose last-quarter mean exceeds its first-quarter mean by
#: more than this factor is growing: the load is not sustainable.  At
#: 0.05 tasks/s seeds 1-21 read 0.93-1.41 (the backlog is only about 16
#: tasks, so quarters fluctuate); a growing backlog reads 5 or more.
BACKLOG_GROWTH_LIMIT = 1.5


def environment() -> dict:
    """What a reader needs to compare one result with another."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` files (no git process);
    ``unknown`` outside a git checkout."""
    git = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def grid_workers() -> int:
    """One worker per CPU this process may run on, and at least two, so
    the parallel path is always the one measured."""
    return max(2, len(os.sched_getaffinity(0)))


def params_for(name: str, smoke: bool) -> dict:
    """The workload's parameters (plus derived ones) at the given size."""
    params = dict(WORKLOADS[name]["smoke" if smoke else "full"], smoke=smoke)
    if name == "grid-ds1":
        params["workers"] = grid_workers()
    return params


#: The reference loop's time at the speed every reported timing is
#: scaled to (about its time on a quiet 2-vCPU Xeon VM).
REF_NOMINAL_S = 0.25


def reference_seconds(rounds: int = 100) -> float:
    """Time a fixed loop of NumPy and interpreter work.

    Shared machines drift in speed: within one ten-seed pass on a 2-vCPU
    VM, the import alone went from 0.26 s to 0.50 s.  The loop mixes
    medium-array sorts and scans, tiny-array calls and dict updates, as
    the program does, so its time tracks that drift (correlation 0.84
    with the service run across one such pass) while no change to the
    program can move it.  Timings are reported as
    ``wall × REF_NOMINAL_S / reference``.
    """
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 1 << 40, 20000)
    values = rng.random(20000)
    t0 = time.perf_counter()
    for _ in range(rounds):
        order = np.argsort(keys, kind="stable")
        np.maximum.accumulate(np.cumsum(values[order]))
        np.bincount(order & 1023, minlength=1024)
        small = values[:64]
        for _ in range(40):
            small = np.minimum(small + 1.0, 5.0)
        counts: dict = {}
        for i in range(2000):
            counts[i & 255] = counts.get(i & 255, 0) + i
    return time.perf_counter() - t0


def peak_rss_mb(include_children: bool = False) -> float:
    """High-water RSS of this process (plus its largest waited child)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (2**20 if sys.platform == "darwin" else 1024)


# -- set-up ---------------------------------------------------------------------


class State:
    """Inputs of one workload, built during set-up."""

    def __init__(self, name: str, params: dict, seed: int) -> None:
        self.name = name
        self.params = params
        self.seed = seed
        self.dataset = None
        self.dataset_s = 0.0
        self.windows = None
        self.service = None


def setup(name: str, params: dict, seed: int) -> State:
    """Import what the workload needs and build its inputs."""
    from repro.experiments import datasets

    state = State(name, params, seed)
    builder = datasets.dataset3 if name == "fig6-ds3" else datasets.dataset1
    t0 = time.perf_counter()
    state.dataset = builder(seed)
    state.dataset_s = time.perf_counter() - t0
    if name.startswith("fig"):
        import repro.experiments.figures  # noqa: F401
    elif name == "serve-ds1":
        from repro.service.dispatch import DispatchService, ServiceConfig
        from repro.service.stream import ArrivalStream
        from repro.workload.generator import TaskTypeMix

        system = state.dataset.system
        stream = ArrivalStream(
            mix=TaskTypeMix.uniform(system.num_task_types),
            window=params["window_s"], rate=params["rate"], seed=seed,
        )
        state.windows = list(stream.windows(params["windows"]))
        state.service = DispatchService(system, ServiceConfig(seed=seed))
    else:
        import repro.experiments.repetitions  # noqa: F401
    return state


# -- the timed call -------------------------------------------------------------


class Outcome:
    """What one timed run produced."""

    def __init__(self, steps: list) -> None:
        self.run_s = 0.0
        #: Step latencies in seconds, filled by the step timer the
        #: caller installed or, for the service, by the loop itself.
        self.steps = steps
        self.fronts: list[np.ndarray] = []
        self.energy = 0.0
        self.utility = 0.0
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.extra: dict = {}
        #: Index of the root span when the run was traced.
        self.root = -1


@contextmanager
def _timed(out: Outcome, tracer):
    """Time the block into ``out.run_s``; with a tracer, also as the
    root span every layer span nests under."""
    root = tracer.open("run") if tracer is not None else None
    t0 = time.perf_counter()
    try:
        yield
    finally:
        out.run_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
            out.root = root


def run(state: State, steps: list, tracer=None) -> Outcome:
    """Run the workload's timed call.

    *steps* collects step latencies from the step timer the caller
    installed (the service loop times its own windows); with *tracer*
    the timed call is the root span of the trace.
    """
    out = Outcome(steps)
    p, seed, ds = state.params, state.seed, state.dataset
    if state.name.startswith("fig"):
        from repro.experiments.figures import figure3, figure6

        figure = figure3 if state.name == "fig3-ds1" else figure6
        with _timed(out, tracer):
            result = figure(checkpoints=p["checkpoints"],
                            population_size=p["population"],
                            base_seed=seed, dataset=ds)
        populations = result.result
        out.fronts = [populations.front(label).points
                      for label in populations.histories]
        out.attempted = len(populations.histories) + len(populations.failures)
        out.failed = len(populations.failures)
    elif state.name == "serve-ds1":
        _serve(state, out, tracer)
    else:
        from repro.experiments.repetitions import run_repetitions

        with _timed(out, tracer):
            result = run_repetitions(
                ds, p["repetitions"], p["generations"],
                population_size=p["population"], base_seed=seed,
                workers=p["workers"], transport="shm",
            )
        out.fronts = list(result.fronts)
        out.attempted = p["repetitions"]
        out.failed = p["repetitions"] - len(result.fronts)
    if out.fronts:
        best = [front[np.argmax(front[:, 1])] for front in out.fronts]
        out.energy = float(np.mean([b[0] for b in best]))
        out.utility = float(np.mean([b[1] for b in best]))
    return out


def _serve(state: State, out: Outcome, tracer) -> None:
    """Closed loop over the windows; checks ride along per window."""
    service = state.service
    ledger = service.ledger
    active, latency, rss = [], [], []
    ledger_ok = True
    with _timed(out, tracer):
        for batch in state.windows:
            span = tracer.open("service.window") if tracer is not None else None
            t0 = time.perf_counter()
            report = service.process_window(batch)
            latency.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.close(span)
            # The dispatched point's objectives (from the batch kernel)
            # must equal the ledger's per-task accounting (from the full
            # evaluation at commit).
            if report.tasks:
                ledger_ok &= bool(
                    np.isclose(ledger.total_energy, report.chosen_energy,
                               rtol=1e-9, atol=0.0)
                    and np.isclose(ledger.total_utility, report.chosen_utility,
                                   rtol=1e-9, atol=1e-9)
                )
            active.append(ledger.active)
            rss.append(peak_rss_mb())
    out.steps.extend(latency)
    generated = sum(batch.count for batch in state.windows)
    quarter = max(len(active) // 4, 1)
    first = float(np.mean(active[:quarter]))
    growth = float(np.mean(active[-quarter:])) / first if first else 0.0
    busy = [r for r in service.reports if r.tasks]
    out.energy = ledger.total_energy
    out.utility = ledger.total_utility
    out.attempted = len(state.windows)
    out.failed = len(state.windows) - len(service.reports)
    out.checks["every_task_dispatched"] = ledger.dispatched_total == generated
    out.checks["ledger_matches_dispatch"] = ledger_ok
    if not state.params.get("smoke"):
        out.checks["backlog_flat"] = growth <= BACKLOG_GROWTH_LIMIT
    out.extra.update({
        "service": True,
        "service.backlog_tasks": float(np.mean(active)),
        "service.backlog_growth": growth,
        "service.archive_points": len(service.archive) if service.archive else 0,
        "service.rss_growth_mb": rss[-1] - rss[0],
        "service.kernel_adopted_share": (
            sum(r.kernel_adopted for r in busy) / len(busy) if busy else 0.0
        ),
    })


# -- quality and checks ----------------------------------------------------------


def reference_box(state: State) -> tuple[float, float]:
    """Hypervolume reference from the inputs alone: the energy of every
    task on its most expensive feasible machine, and the utility of
    every task finished at once."""
    system = state.dataset.system
    eec = np.where(np.isfinite(system.eec_task_machine),
                   system.eec_task_machine, -np.inf)
    worst_energy = eec.max(axis=1)
    peak_utility = np.array([t.utility_function.max_utility
                             for t in system.task_types])
    if state.windows is not None:
        types = np.concatenate([b.task_types for b in state.windows])
    else:
        types = state.dataset.trace.task_types
    return float(worst_energy[types].sum()), float(peak_utility[types].sum())


def front_hypervolume(state: State, out: Outcome) -> float:
    """Normalised hypervolume of the result in (energy, utility).

    Figures and grid: the mean over final fronts.  Service: the one
    point the service dispatched.  Normalised by the reference box, so
    the value lies in [0, 1].
    """
    from repro.analysis.indicators import hypervolume

    e_ref, u_ref = reference_box(state)
    if out.fronts:
        volumes = [hypervolume(front, (e_ref, 0.0)) for front in out.fronts]
        return float(np.mean(volumes)) / (e_ref * u_ref)
    return max(e_ref - out.energy, 0.0) * out.utility / (e_ref * u_ref)


def mutually_nondominated(front: np.ndarray) -> bool:
    """No point of *front* dominates another (energy down, utility up)."""
    e, u = front[:, 0], front[:, 1]
    no_worse = (e[:, None] <= e[None, :]) & (u[:, None] >= u[None, :])
    better = (e[:, None] < e[None, :]) | (u[:, None] > u[None, :])
    dominates = no_worse & better
    return not dominates.any()


def check(state: State, out: Outcome, full_checks: bool) -> None:
    """Fill ``out.checks`` with the workload's correctness checks.

    *full_checks* adds the expensive ones (the grid's serial re-run),
    which one child per benchmark run performs.
    """
    if out.fronts:
        out.checks["fronts_nondominated"] = all(
            mutually_nondominated(front) for front in out.fronts
        )
    out.checks["no_failed_operations"] = out.failed == 0
    if state.name == "grid-ds1" and full_checks:
        from repro.experiments.repetitions import run_repetitions

        p = state.params
        serial = run_repetitions(
            state.dataset, 1, p["generations"],
            population_size=p["population"], base_seed=state.seed, workers=0,
        )
        parallel = out.fronts[0]
        out.checks["serial_rep0_matches_parallel"] = (
            serial.fronts[0].dtype == parallel.dtype
            and serial.fronts[0].shape == parallel.shape
            and serial.fronts[0].tobytes() == parallel.tobytes()
        )
