"""``repro.obs`` — telemetry, tracing, and run provenance.

The observability spine across every engine: a zero-dependency
:class:`Telemetry` registry (counters, gauges, histograms, nestable
spans) with mergeable :class:`TelemetrySnapshot` rows that fold worker
time into the parent, a schema-versioned JSONL flight recorder
(:class:`TraceWriter` / :func:`read_trace` / :func:`validate_trace`),
Prometheus text exposition (:func:`to_prometheus`), and trace
summarisation for the CLI (:func:`summarize_trace`).

Off by default: :func:`current` returns a no-op registry unless a
:func:`session` is active, so instrumented hot paths cost nothing when
nobody is watching.
"""

from .telemetry import (
    NULL,
    NullTelemetry,
    Telemetry,
    TelemetrySnapshot,
    current,
    session,
    worker_span_snapshot,
)
from .trace import (
    TRACE_SCHEMA_VERSION,
    TraceSchemaError,
    TraceWriter,
    read_trace,
    validate_record,
    validate_trace,
)
from .export import to_prometheus
from .report import render, sparkline, summarize_trace

__all__ = [
    "NULL",
    "NullTelemetry",
    "TRACE_SCHEMA_VERSION",
    "Telemetry",
    "TelemetrySnapshot",
    "TraceSchemaError",
    "TraceWriter",
    "current",
    "read_trace",
    "render",
    "session",
    "sparkline",
    "summarize_trace",
    "to_prometheus",
    "validate_record",
    "validate_trace",
    "worker_span_snapshot",
]
