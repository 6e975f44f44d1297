"""Per-layer tracing from outside the program.

Every wrapper here is set on a class or module attribute of the
``repro`` package; nothing inside ``src/`` is edited.  A wrapper times
one call into a layer's public entry point and files a span (name,
start, end, parent) in memory; counts ride along in a plain dict.
Spans are written out once, when the traced run ends.

Layer names follow the obs spans the program already emits where one
exists (``ga.generation``, ``evaluator.batch``, ``seeding.build``,
``ga.initial_population``, ``ga.run``, ``service.window``,
``grid.run``, ``repetition.run``), so a trace from this benchmark and
a trace from ``--obs-dir`` read the same way.

Which end-to-end metric each layer should move, on which workload:

==============================  =====================================
layer metrics                   moves
==============================  =====================================
``datasets.build_ms``           ``setup_s``, every workload
``seeding.*``                   ``run_s`` on fig6-ds3 (not fig3-ds1)
``ga.*``                        ``run_s`` on fig3-ds1, less on fig6-ds3
``evaluator.*``, ``kernel.*``   ``run_s`` on fig3/fig6, window latency
                                on serve-ds1
``service.*``                   ``step_p50_ms``/``step_p95_ms`` and
                                ``peak_rss_mb`` on serve-ds1
``parallel.*``                  ``run_s`` on grid-ds1 only
==============================  =====================================
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np

#: Spans whose own time is split among their children when computing
#: ``other_ms``: a window or an optimizer run is a container of named
#: phases, not a phase of its own.
TRANSPARENT = frozenset({"service.window", "ga.run"})

#: Phases a service window is made of (``service.*`` metric → span).
SERVICE_PHASES = {
    "service.evaluator_build_ms": "service.evaluator_build",
    "service.seed_repair_ms": "service.seed_repair",
    "service.optimize_ms": "ga.run",
    "service.evaluate_full_ms": "service.evaluate_full",
    "service.commit_ms": "service.commit",
    "service.compact_ms": "service.compact",
    "service.archive_update_ms": "service.archive_update",
}

class Tracer:
    """In-memory span and count recorder fed by attribute wrappers."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        #: ``[name, start_s, end_s, parent_index]``; parent -1 = none.
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter() - self.epoch, None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End span *index*, the innermost open one."""
        span = self.spans[index]
        span[2] = time.perf_counter() - self.epoch
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]!r} closed out of order")

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        *before(args, kwargs)* returns ``(args, kwargs, state)``, possibly
        with replaced arguments; *after(args, result, state)* sees the
        call's outcome and what *before* stashed (or ``None``).
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_static = isinstance(raw, staticmethod)
        original = raw.__func__ if is_static else raw

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, result, state)
            return result

        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- export --------------------------------------------------------------

    def write(self, path, header: dict) -> None:
        """Write the header, every span and the counts as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "span": i, "name": name, "start_s": start, "end_s": end,
                    "parent": None if parent < 0 else parent,
                }) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the four workloads go through."""
    import repro.core.nsga2 as nsga2
    import repro.parallel.descriptors as descriptors
    import repro.service.dispatch as dispatch
    from repro.core.algorithm import Algorithm, EvolutionaryAlgorithm
    from repro.core.archive import EpsilonParetoArchive
    from repro.core.operators import VariationOperators
    from repro.heuristics import SEEDING_HEURISTICS
    from repro.parallel.engine import ParallelEngine
    from repro.service.window import CommittedLedger, WindowEvaluator
    from repro.sim.evaluator import ScheduleEvaluator

    counts = tracer.counts
    wrap = tracer.wrap

    # -- heuristics: SeedingHeuristic.build is abstract; wrap each
    # registered concrete heuristic.
    for cls in set(SEEDING_HEURISTICS.values()):
        wrap(cls, "build", "seeding.build")

    # -- core
    wrap(Algorithm, "__init__", "ga.initial_population")
    wrap(Algorithm, "run", "ga.run")
    wrap(EvolutionaryAlgorithm, "step", "ga.generation")
    wrap(VariationOperators, "crossover_population", "ga.stage.variation")
    wrap(VariationOperators, "mutate_population", "ga.stage.variation")
    wrap(nsga2, "fast_nondominated_sort", "ga.sort")
    wrap(nsga2, "crowding_by_front", "ga.crowding")
    wrap(nsga2, "crowding_truncate", "ga.crowding")

    # -- sim: kernel counters are read from the public cache_stats
    # before and after each batch, so adopted or reset counters never
    # leak into the totals.
    def stats_before(args, kwargs):
        return args, kwargs, args[0].cache_stats

    def stats_after(args, result, before):
        after = args[0].cache_stats
        counts["evaluator.rows"] += int(result[0].shape[0])
        for key in ("elements_total", "elements_reused", "hits", "misses"):
            counts[f"kernel.{key}"] += after.get(key, 0) - before.get(key, 0)

    wrap(ScheduleEvaluator, "__init__", "evaluator.build")
    wrap(ScheduleEvaluator, "evaluate_batch", "evaluator.batch",
         before=stats_before, after=stats_after)
    wrap(ScheduleEvaluator, "evaluate", "evaluator.evaluate")

    # -- service
    wrap(WindowEvaluator, "__init__", "service.evaluator_build")
    wrap(WindowEvaluator, "evaluate_full", "service.evaluate_full")
    wrap(dispatch, "repair_mapped_seeds", "service.seed_repair")
    wrap(CommittedLedger, "commit", "service.commit")

    def count_compacted(args, result, state):
        counts["service.compacted_tasks"] += result

    wrap(CommittedLedger, "compact", "service.compact", after=count_compacted)
    wrap(EpsilonParetoArchive, "update", "service.archive_update")

    # -- parallel: worker-side cell times arrive in each CellReply, so
    # the coordinator's on_result and backoff_for callbacks are wrapped
    # on their way into ParallelEngine.run.
    def intercept_callbacks(args, kwargs):
        on_result = kwargs["on_result"]
        backoff_for = kwargs["backoff_for"]

        def recording_on_result(reply):
            tracer.samples["repetition.run"].append(reply.elapsed)
            tracer.samples["parallel.queue_wait"].append(reply.queue_wait)
            counts["parallel.workers"] = args[0].workers
            return on_result(reply)

        def counting_backoff(key, attempt):
            counts["parallel.retries"] += 1
            return backoff_for(key, attempt)

        kwargs = dict(kwargs, on_result=recording_on_result,
                      backoff_for=counting_backoff)
        return args, kwargs, None

    wrap(descriptors, "publish_dataset", "parallel.publish")
    wrap(descriptors.PublishedDataset, "close", "parallel.publish")
    wrap(ParallelEngine, "__init__", "parallel.pool")
    wrap(ParallelEngine, "close", "parallel.pool")
    wrap(ParallelEngine, "run", "grid.run", before=intercept_callbacks)


def untraced_workers(uninstall: Callable[[], None]) -> None:
    """Remove the wrappers in pool workers before they run a cell.

    Pool workers fork from the traced process and would inherit every
    wrapper, slowing the very cells the grid measures.  The pool
    initializer is looked up on the engine module each time a pool is
    built, so wrapping it there reaches each new worker first.
    """
    import repro.parallel.engine as engine

    init = engine._worker_init

    @functools.wraps(init)
    def worker_init(*args):
        uninstall()
        return init(*args)

    engine._worker_init = worker_init


def install_step_timer(samples: list) -> Callable[[], None]:
    """Untraced runs: time only the workload's step calls.

    A GA generation (``EvolutionaryAlgorithm.step``) is the step of the
    figure workloads and a repetition cell (worker-side, from each
    ``CellReply``) the step of the grid.  One clock pair per step, no
    spans.  Returns the function that removes the wrappers.
    """
    from repro.core.algorithm import EvolutionaryAlgorithm
    from repro.parallel.engine import ParallelEngine

    step = EvolutionaryAlgorithm.__dict__["step"]
    run = ParallelEngine.__dict__["run"]

    @functools.wraps(step)
    def timed_step(self):
        t0 = time.perf_counter()
        step(self)
        samples.append(time.perf_counter() - t0)

    @functools.wraps(run)
    def recording_run(self, *args, **kwargs):
        on_result = kwargs["on_result"]

        def record(reply):
            samples.append(reply.elapsed)
            return on_result(reply)

        return run(self, *args, **dict(kwargs, on_result=record))

    EvolutionaryAlgorithm.step = timed_step
    ParallelEngine.run = recording_run

    def uninstall() -> None:
        EvolutionaryAlgorithm.step = step
        ParallelEngine.run = run

    return uninstall


# -- per-layer metrics ---------------------------------------------------------


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, root: int, extra: dict) -> dict:
    """Per-layer metrics from the spans under the *root* span.

    *extra* holds what the workload loop measured itself (the service's
    backlog and RSS series); keys already named like metrics pass
    through.
    """
    spans = tracer.spans
    run_s = spans[root][2] - spans[root][1]
    by_name: dict[str, list[float]] = defaultdict(list)
    child_batch: dict[int, float] = defaultdict(float)
    for name, start, end, parent in spans:
        by_name[name].append(end - start)
        if name == "evaluator.batch" and parent >= 0:
            child_batch[parent] += end - start

    def total_ms(name: str) -> float:
        return sum(by_name.get(name, ())) * 1e3

    generations = by_name.get("ga.generation", [])
    gen_self = sum(
        (end - start) - child_batch.get(i, 0.0)
        for i, (name, start, end, _) in enumerate(spans)
        if name == "ga.generation"
    )
    counts = tracer.counts
    kernel_total = counts.get("kernel.elements_total", 0)
    kernel_lookups = counts.get("kernel.hits", 0) + counts.get("kernel.misses", 0)

    # other_ms: time in the root span that no named phase covers.  A
    # phase is a direct child of the root, or of a transparent container
    # whose own time is thereby split among its children.
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        children[span[3]].append(i)

    def covered(index: int) -> float:
        total = 0.0
        for i in children.get(index, ()):
            name, start, end, _ = spans[i]
            total += covered(i) if name in TRANSPARENT else end - start
        return total

    other_s = max(run_s - covered(root), 0.0)

    cells = tracer.samples.get("repetition.run", [])
    waits = tracer.samples.get("parallel.queue_wait", [])
    workers = counts.get("parallel.workers", 0)
    metrics = {
        "datasets.build_ms": extra.get("datasets.build_ms", 0.0),
        "seeding.build_ms": total_ms("seeding.build"),
        "seeding.build_calls": len(by_name.get("seeding.build", ())),
        "ga.initial_population_ms": total_ms("ga.initial_population"),
        "ga.generation_calls": len(generations),
        "ga.generation_ms": total_ms("ga.generation"),
        "ga.generation_p50_ms": _pct(generations, 50) * 1e3,
        "ga.generation_p95_ms": _pct(generations, 95) * 1e3,
        "ga.stage.variation_ms": total_ms("ga.stage.variation"),
        "ga.sort_ms": total_ms("ga.sort"),
        "ga.crowding_ms": total_ms("ga.crowding"),
        "ga.self_ms": gen_self * 1e3,
        "evaluator.build_ms": total_ms("evaluator.build"),
        "evaluator.batch_calls": len(by_name.get("evaluator.batch", ())),
        "evaluator.batch_ms": total_ms("evaluator.batch"),
        "evaluator.batch_p50_ms": _pct(by_name.get("evaluator.batch", []), 50) * 1e3,
        "evaluator.rows": counts.get("evaluator.rows", 0),
        "evaluator.evaluate_ms": total_ms("evaluator.evaluate"),
        "kernel.reuse_rate": (
            counts.get("kernel.elements_reused", 0) / kernel_total
            if kernel_total else 0.0
        ),
        "kernel.hit_rate": (
            counts.get("kernel.hits", 0) / kernel_lookups if kernel_lookups else 0.0
        ),
        "kernel.elements_total": kernel_total,
    }
    for metric, span_name in SERVICE_PHASES.items():
        metrics[metric] = total_ms(span_name) if extra.get("service") else 0.0
    updates = by_name.get("service.archive_update", [])
    quarter = len(updates) // 4
    metrics.update({
        "service.compacted_tasks": counts.get("service.compacted_tasks", 0),
        "service.archive_update_growth": (
            (sum(updates[-quarter:]) / sum(updates[:quarter]))
            if quarter and extra.get("service") else 0.0
        ),
        "service.archive_points": extra.get("service.archive_points", 0),
        "service.rss_growth_mb": extra.get("service.rss_growth_mb", 0.0),
        "service.backlog_tasks": extra.get("service.backlog_tasks", 0.0),
        "service.backlog_growth": extra.get("service.backlog_growth", 0.0),
        "service.kernel_adopted_share": extra.get("service.kernel_adopted_share", 0.0),
        "parallel.publish_ms": total_ms("parallel.publish"),
        "parallel.pool_ms": total_ms("parallel.pool"),
        "parallel.grid_run_ms": total_ms("grid.run"),
        "parallel.cell_p50_ms": _pct(cells, 50) * 1e3,
        "parallel.queue_wait_ms": _pct(waits, 50) * 1e3,
        "parallel.retries": counts.get("parallel.retries", 0),
        "parallel.overhead_share": (
            1.0 - sum(cells) / (workers * run_s) if workers else 0.0
        ),
        "trace.run_s": run_s,
        "trace.spans": len(spans),
        "other_ms": other_s * 1e3,
        "other_share": other_s / run_s if run_s > 0 else 0.0,
    })
    return metrics
