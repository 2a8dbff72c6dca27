"""Unified telemetry: traces, metrics, span export and analysis.

Four dependency-free modules (see their docstrings for the full story):

* :mod:`repro.obs.trace` — per-request :class:`Tracer`/:class:`Span` trees
  with a free disabled path, ambient activation via ``REPRO_TRACE`` or
  :func:`tracing`, JSONL dump/round-trip, and trace-consumer fan-out on
  request end.
* :mod:`repro.obs.metrics` — thread-safe :class:`MetricsRegistry` of
  labeled counters/gauges/histograms (log-bucket p50/p95/p99), scrape-time
  collectors for hot module counters, Prometheus text exposition, and the
  cross-process ``dump``/``registry_delta``/``merge`` tier.
* :mod:`repro.obs.export` — the OTLP-shaped span exporter over a bounded
  non-blocking queue with batch flush and retry/backoff, pluggable
  file/HTTP/callable sinks (``REPRO_OTLP_SINK``), and the
  :class:`TraceRing` of recent traces.
* :mod:`repro.obs.analyze` — critical-path extraction, self-time rollups
  and flamegraph-folded output from any trace or JSONL dump.

Each kind of telemetry has one way out of the process: metrics are
scraped from ``GET /metrics``, recent traces are read from
``GET /traces`` (both on :class:`repro.serving.ExplanationServer`), and
spans ship through the span exporter.
"""

from .analyze import TraceSummary, critical_path, folded, rollup, self_times, summarize, summarize_jsonl
from .export import (
    FileSink,
    HTTPSink,
    SpanExporter,
    TraceRing,
    ensure_env_exporter,
    flush_span_exporters,
    install_span_exporter,
    resolve_sink,
    spans_payload,
    trace_to_otlp,
    uninstall_span_exporter,
)
from .metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    capture,
    default_buckets,
    namespace_metric,
    registry_delta,
    render_registries,
)
from .trace import (
    NOOP_TRACER,
    Span,
    Trace,
    Tracer,
    add_trace_consumer,
    append_jsonl,
    begin_request,
    current_tracer,
    end_request,
    read_traces,
    remove_trace_consumer,
    trace_path,
    tracing,
    tracing_enabled,
)

__all__ = [
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "capture",
    "default_buckets",
    "namespace_metric",
    "registry_delta",
    "render_registries",
    "NOOP_TRACER",
    "Span",
    "Trace",
    "Tracer",
    "add_trace_consumer",
    "append_jsonl",
    "begin_request",
    "current_tracer",
    "end_request",
    "read_traces",
    "remove_trace_consumer",
    "trace_path",
    "tracing",
    "tracing_enabled",
    "SpanExporter",
    "FileSink",
    "HTTPSink",
    "TraceRing",
    "resolve_sink",
    "trace_to_otlp",
    "spans_payload",
    "install_span_exporter",
    "uninstall_span_exporter",
    "flush_span_exporters",
    "ensure_env_exporter",
    "TraceSummary",
    "critical_path",
    "self_times",
    "rollup",
    "folded",
    "summarize",
    "summarize_jsonl",
]
