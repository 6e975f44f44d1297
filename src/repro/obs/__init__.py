"""Unified observability: run-scoped tracing, metrics, and event logs.

The subsystem is dependency-free and zero-overhead-by-default: every
instrumented layer accepts an optional
:class:`~repro.obs.context.RunContext` and guards all recording behind
one ``if obs.enabled`` branch, so dark runs pay a single predicate.
Enabling observability never touches any seeded RNG stream — fronts and
checkpoints stay bit-identical with it on or off.

Layout:

* :mod:`repro.obs.context` — :class:`RunContext` (the facade all layers
  accept) and the shared :data:`NULL_CONTEXT`;
* :mod:`repro.obs.trace` — :class:`Span` / :class:`Tracer`, JSONL
  export, text flame summary;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters /
  gauges / histograms with JSON and Prometheus-text exporters;
* :mod:`repro.obs.events` — leveled structured :class:`EventLog`;
* :mod:`repro.obs.schema` — validators for the on-disk artifacts;
* :mod:`repro.obs.report` — the ``repro-analyze trace`` summary
  renderer;
* :mod:`repro.obs.distributed` — picklable :class:`TraceContext` /
  :class:`WorkerTelemetryConfig` propagation plus the crash-safe
  per-worker :class:`WorkerTelemetry` sink;
* :mod:`repro.obs.collect` — :func:`merge_obs_dir`, folding worker
  sinks and the coordinator trace into one causally-linked trace;
* :mod:`repro.obs.watch` — the live ``repro-analyze grid watch``
  dashboard over a durable grid's journal + telemetry.

See ``docs/observability.md`` for the span taxonomy, metric names, and
event schema.
"""

from repro import _lazy

__all__ = [
    "RunContext",
    "NULL_CONTEXT",
    "Tracer",
    "Span",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "EventLog",
    "TraceContext",
    "WorkerTelemetry",
    "WorkerTelemetryConfig",
    "merge_obs_dir",
    "worker_dirs",
    "trace_report",
    "validate_run_dir",
    "check_run_dir",
]

__getattr__, __dir__ = _lazy.exports(globals(), {
    ".collect": ("merge_obs_dir", "worker_dirs"),
    ".context": ("NULL_CONTEXT", "RunContext"),
    ".distributed": (
        "TraceContext", "WorkerTelemetry", "WorkerTelemetryConfig",
    ),
    ".events": ("EventLog",),
    ".metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    ".report": ("trace_report",),
    ".schema": ("check_run_dir", "validate_run_dir"),
    ".trace": ("Span", "Tracer"),
})
