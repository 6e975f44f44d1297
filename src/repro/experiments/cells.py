"""One cell loop for every grid driver.

The seeded-population runner, the repetition grid and the portfolio are
each a list of independent cells — one optimizer run per population
label, repetition index or algorithm name.  Each driver hands
:func:`run_cells` three things: a :class:`CellSpec` naming its spans,
backoff stream and payload codec, one module-level cell body, and its
own give-up rule.  Everything else lives here, once:

* the single ``workers > 1 and len(todo) > 1`` choice between the
  inline loop and the process pool;
* the inline attempt loop — journaling, bounded retries, backoff;
* the pool branch — publish the dataset once, run the cells on a
  :class:`~repro.parallel.engine.ParallelEngine` under a ``grid.run``
  span;
* the durable grid — preload verified-done cells, journal and persist
  fresh ones, report the quarantined ones;
* label-order restore and one per-cell span per driver on both paths.

Both paths call the same cell body with the same arguments, so a
driver's results at ``workers=0`` and ``workers=N`` are bit-identical by
construction.  The inline path imports nothing from
:mod:`repro.parallel`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable, Optional, Sequence

from repro.rng import derive_seed, ensure_rng
from repro.sim.evaluator import ScheduleEvaluator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.datasets import DatasetBundle
    from repro.obs.context import RunContext

__all__ = ["CellSpec", "InlineSource", "run_cells"]

#: ``cell(source, extra, key, attempt, obs) -> result``.  *source* offers
#: ``.bundle`` and ``.make_evaluator(**kw)``: an :class:`InlineSource`
#: in process, the worker's restored dataset in a pool.
CellBody = Callable[[Any, Any, Hashable, int, "RunContext"], Any]


def _encode_history(history) -> dict:
    from repro.experiments.io import history_to_doc

    return {"history": history_to_doc(history)}


def _decode_history(key: Hashable, payload: dict):
    from repro.experiments.io import history_from_doc

    return history_from_doc(key, payload["history"])


@dataclass(frozen=True)
class CellSpec:
    """What a driver tells :func:`run_cells` about its cells.

    Attributes
    ----------
    driver:
        The ``driver`` attribute of the ``grid.run`` span.
    span:
        Per-cell span name (``population.run``, ...).
    key_attr:
        Span attribute that names the cell.
    backoff_stream:
        :func:`~repro.rng.derive_seed` prefix of each cell's backoff
        jitter stream; the cell key is appended.
    label:
        Cell key → label of its ``retry.scheduled`` events.
    encode, decode:
        Result ↔ durable-grid payload; ``decode`` also gets the key.
        Default: a :class:`~repro.core.algorithm.RunHistory`.
    """

    driver: str
    span: str
    key_attr: str
    backoff_stream: tuple
    label: Callable[[Hashable], str] = str
    encode: Callable[[Any], Any] = _encode_history
    decode: Callable[[Hashable, Any], Any] = _decode_history


class InlineSource:
    """The in-process counterpart of a pool worker's restored dataset."""

    def __init__(self, bundle: "DatasetBundle") -> None:
        self.bundle = bundle

    def make_evaluator(self, **kwargs) -> ScheduleEvaluator:
        """A fresh :class:`ScheduleEvaluator` over the bundle."""
        return ScheduleEvaluator(self.bundle.system, self.bundle.trace, **kwargs)


def _pool_cell(restored, extra, key, attempt, payload):
    """Engine cell body: the driver's cell with the worker's context."""
    from repro.parallel.engine import worker_obs

    cell, cell_extra = extra
    return cell(restored, cell_extra, key, attempt, worker_obs())


def run_cells(
    spec: CellSpec,
    cell: CellBody,
    keys: Sequence[Hashable],
    *,
    dataset: "DatasetBundle",
    extra: Any,
    policy,
    give_up: Callable[[Hashable, int, BaseException], None],
    obs: "RunContext",
    workers: int = 0,
    transport: str = "auto",
    grid_dir: Optional[str] = None,
    grid_spec: Optional[dict] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[dict, dict]:
    """Run *cell* for every key in *keys*; return results and quarantine.

    Parameters
    ----------
    spec:
        The driver's :class:`CellSpec`.
    cell:
        Module-level (picklable) cell body, called as
        ``cell(source, extra, key, attempt, obs)``.  In a pool worker
        *obs* is the worker's own context.
    extra:
        Per-grid constants for the cell body; shipped once per worker.
    policy:
        A :class:`~repro.experiments.runner.RetryPolicy`.  Its timeout
        applies only in a pool: an inline attempt cannot be pre-empted.
    give_up:
        ``(key, attempt, exc)`` — called once a cell has used up its
        attempts; the driver records the failure or raises.
    workers, transport:
        Pool size and array transport; the pool is used only when
        ``workers > 1`` and more than one cell is left to run.
    grid_dir, grid_spec:
        Durable grid directory and the spec it is fingerprinted by
        (see :mod:`repro.experiments.grid`).
    sleep:
        Backoff wait (tests pass a recorder).

    Returns
    -------
    ``({key: result}, {quarantined key: attempt})`` — results in
    *keys* order, preloaded grid cells included, failed cells absent.
    """
    keys = list(keys)
    results: dict = {}
    binding = None
    todo = keys
    if grid_dir is not None:
        from repro.experiments.grid import GridBinding

        binding = GridBinding.open_or_create(
            grid_dir, spec=grid_spec, dataset=dataset, keys=keys, obs=obs,
        )
        for key, payload in binding.preloaded.items():
            results[key] = spec.decode(key, payload)
        todo = binding.pending_keys(keys)

    rngs: dict = {}
    prev_delays: dict = {}

    def backoff_for(key: Hashable, attempt: int) -> float:
        # Called exactly once per scheduled retry, on both paths.
        if key not in rngs:
            rngs[key] = ensure_rng(derive_seed(*spec.backoff_stream, key))
        delay = policy.delay(attempt, rngs[key], prev=prev_delays.get(key))
        prev_delays[key] = delay
        if obs.enabled:
            obs.counter(
                "runner_retries_total", help="grid cell attempts retried"
            ).inc()
            obs.event(
                "retry.scheduled", level="warning",
                label=spec.label(key), failed_attempt=attempt,
                delay_seconds=delay,
            )
        return delay

    def done(key: Hashable, result: Any) -> None:
        results[key] = result
        if binding is not None:
            binding.record_done(key, spec.encode(result))

    if workers and workers > 1 and len(todo) > 1:
        from repro.obs.distributed import GRID_SPAN_NAME, WorkerTelemetryConfig
        from repro.parallel.descriptors import publish_dataset
        from repro.parallel.engine import ParallelEngine

        def on_result(reply) -> None:
            done(reply.key, reply.result)
            obs.record_span(
                spec.span, reply.elapsed,
                **{spec.key_attr: reply.key}, attempt=reply.attempt,
            )

        grid_id = binding.manifest.grid_id if binding is not None else ""
        with publish_dataset(dataset, transport=transport, obs=obs) as published:
            with ParallelEngine(
                workers, handle=published.handle, extra=(cell, extra),
                obs=obs,
                journal=binding.worker_journal() if binding is not None else None,
                telemetry=WorkerTelemetryConfig.from_context(obs, grid_id=grid_id),
            ) as engine:
                with obs.span(
                    GRID_SPAN_NAME, grid_id=grid_id, cells=len(todo),
                    driver=spec.driver,
                ):
                    engine.run(
                        _pool_cell,
                        todo,
                        payload_for=lambda key, attempt: None,
                        policy=policy,
                        backoff_for=backoff_for,
                        give_up=give_up,
                        on_result=on_result,
                        sleep=sleep,
                        **(binding.run_kwargs() if binding is not None else {}),
                    )
    else:
        source = InlineSource(dataset)
        for key in todo:
            for attempt in range(1, policy.max_attempts + 1):
                if binding is not None:
                    binding.mark_running(key, attempt)
                try:
                    with obs.span(
                        spec.span, **{spec.key_attr: key}, attempt=attempt
                    ):
                        result = cell(source, extra, key, attempt, obs)
                except Exception as exc:
                    if binding is not None:
                        binding.mark_failed(key, attempt, exc)
                    if attempt == policy.max_attempts:
                        give_up(key, attempt, exc)
                    else:
                        sleep(backoff_for(key, attempt))
                else:
                    done(key, result)
                    break

    # Cells land in completion (or preload) order; restore key order so
    # every downstream iteration matches an uninterrupted serial run.
    ordered = {key: results[key] for key in keys if key in results}
    quarantined = {} if binding is None else {
        key: max(binding.manifest.cells[key].attempt, 1)
        for key in binding.quarantined_keys()
    }
    return ordered, quarantined
