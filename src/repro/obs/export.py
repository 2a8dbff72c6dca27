"""OTLP-shaped span export: finished traces leave the process.

The tracing layer is deliberately in-process; this module is the wire
tier on top of it.  :class:`SpanExporter` converts finished
:class:`~repro.obs.trace.Trace` objects to OTLP/JSON ``resourceSpans``
payloads and ships them through a bounded queue drained by a daemon
thread that batch-flushes to a pluggable *sink* with retry and
exponential backoff.  Install it as a trace consumer
(:func:`install_span_exporter`) and every owned traced request ships
automatically.  Metrics do not leave through here: they are scraped from
``GET /metrics`` of :class:`~repro.serving.http.ExplanationServer`.

The cardinal rule is **the explain path never blocks**: ``submit`` appends
to a bounded deque under a condition variable and returns immediately; when
the queue is full (a stalled sink) the item is *dropped and counted*, never
waited on.  Delivery failures retry ``retry_max`` times with exponential
backoff (``backoff_base_s * 2^attempt``, capped) and then drop the batch.
Drops, retries, exports and queue depth surface as ``repro_export_*``
series on the global :data:`~repro.obs.metrics.REGISTRY` so the scrape
endpoint reports the exporter's own health.

Sinks are anything callable with one JSON-able payload argument;
:func:`resolve_sink` turns a spec string into one:

* ``/path/to/file.jsonl`` → :class:`FileSink` (one payload per line),
* ``http(s)://host/v1/traces`` → :class:`HTTPSink` (POST, JSON body),
* a callable → itself.

Setting ``REPRO_OTLP_SINK`` wires the whole thing up with zero code: the
trace layer lazily calls :func:`ensure_env_exporter` when the first traced
request finishes (see :func:`repro.obs.trace._notify_consumers`).
:func:`flush_span_exporters` drains every installed exporter, however it
was installed; the HTTP server calls it on graceful drain.

:class:`TraceRing` — the bounded ring of recent finished traces behind
``GET /traces`` — lives here too, as the other standard consumer.

Stdlib only; OTLP shapes follow the OTLP/HTTP JSON encoding (hex ids,
nanosecond epoch timestamps, ``AnyValue``-wrapped attributes) closely
enough for standard collectors to ingest.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.request
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Union

from .metrics import REGISTRY
from .trace import Trace, add_trace_consumer, remove_trace_consumer

__all__ = [
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
    "OTLP_SINK_ENV",
]

OTLP_SINK_ENV = "REPRO_OTLP_SINK"

DEFAULT_QUEUE_MAX = 256
DEFAULT_BATCH_MAX = 32
DEFAULT_FLUSH_INTERVAL_S = 0.2
DEFAULT_RETRY_MAX = 3
DEFAULT_BACKOFF_BASE_S = 0.05
DEFAULT_BACKOFF_CAP_S = 2.0

#: The trace-consumer key the REPRO_OTLP_SINK auto-exporter installs under.
ENV_CONSUMER_KEY = "otlp-env"

_RESOURCE = {"service.name": "repro-fedex", "telemetry.sdk.name": "repro.obs"}


# ----------------------------------------------------------------- OTLP shapes
def _any_value(value) -> dict:
    """A python value as an OTLP ``AnyValue``."""
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def _attributes(attrs: dict) -> List[dict]:
    return [{"key": str(key), "value": _any_value(value)}
            for key, value in attrs.items()]


def _hex_span_id(span_id: int) -> str:
    return f"{span_id & ((1 << 64) - 1):016x}"


def _hex_trace_id(trace_id: str) -> str:
    """A 32-hex-char OTLP trace id from the tracer's 16-hex id (zero-padded)."""
    cleaned = "".join(c for c in str(trace_id) if c in "0123456789abcdef")
    return (cleaned + "0" * 32)[:32]


def trace_to_otlp(trace: Trace, resource: Optional[dict] = None) -> dict:
    """One trace as an OTLP/JSON ``resourceSpans`` entry."""
    epoch = getattr(trace, "origin_epoch", 0.0) or 0.0
    trace_id = _hex_trace_id(trace.trace_id)
    spans: List[dict] = []
    for span in trace.spans:
        start_ns = int((epoch + span.started_s) * 1e9)
        item = {
            "traceId": trace_id,
            "spanId": _hex_span_id(span.span_id),
            "name": span.name,
            "kind": 1,  # SPAN_KIND_INTERNAL
            "startTimeUnixNano": str(start_ns),
            "endTimeUnixNano": str(start_ns + int(span.wall_s * 1e9)),
            "attributes": _attributes(span.attrs),
        }
        if span.parent_id is not None:
            item["parentSpanId"] = _hex_span_id(span.parent_id)
        spans.append(item)
    merged = dict(_RESOURCE)
    merged.update(resource or {})
    return {
        "resource": {"attributes": _attributes(merged)},
        "scopeSpans": [{
            "scope": {"name": "repro.obs", "version": "1"},
            "spans": spans,
        }],
    }


def spans_payload(traces: Sequence[Trace],
                  resource: Optional[dict] = None) -> dict:
    """A batch of traces as one OTLP/JSON export request body."""
    return {"resourceSpans": [trace_to_otlp(t, resource) for t in traces]}


# ----------------------------------------------------------------------- sinks
class FileSink:
    """Appends one JSON payload per line to a file (JSONL of export batches)."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.Lock()

    def __call__(self, payload: dict) -> None:
        line = json.dumps(payload, default=str) + "\n"
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FileSink({self.path!r})"


class HTTPSink:
    """POSTs each JSON payload to an OTLP/HTTP-style collector URL."""

    def __init__(self, url: str, timeout_s: float = 5.0,
                 headers: Optional[Dict[str, str]] = None) -> None:
        self.url = str(url)
        self.timeout_s = float(timeout_s)
        self.headers = dict(headers or {})
        self.headers.setdefault("Content-Type", "application/json")

    def __call__(self, payload: dict) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        request = urllib.request.Request(self.url, data=body,
                                         headers=self.headers, method="POST")
        with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
            status = getattr(response, "status", 200)
            if status >= 400:
                raise OSError(f"sink {self.url} returned HTTP {status}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HTTPSink({self.url!r})"


SinkSpec = Union[str, "os.PathLike[str]", Callable[[dict], None]]


def resolve_sink(spec: SinkSpec) -> Callable[[dict], None]:
    """A sink callable from a spec: callable → itself, URL → HTTP, else file."""
    if callable(spec):
        return spec
    text = str(spec)
    if text.startswith(("http://", "https://")):
        return HTTPSink(text)
    return FileSink(text)


# ------------------------------------------------------- exporter-side metrics
_EXPORT_BATCHES = REGISTRY.counter(
    "repro_export_batches_total",
    "Export batches delivered to the sink, by signal.",
    ("signal",))
_EXPORT_ITEMS = REGISTRY.counter(
    "repro_export_items_total",
    "Items (finished traces) delivered to the sink, by signal.",
    ("signal",))
_EXPORT_DROPPED = REGISTRY.counter(
    "repro_export_dropped_total",
    "Items dropped instead of blocking: full queue, closed exporter, or "
    "delivery failure after retries.",
    ("signal", "reason"))
_EXPORT_RETRIES = REGISTRY.counter(
    "repro_export_retries_total",
    "Delivery attempts retried after a sink error, by signal.",
    ("signal",))
_EXPORT_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_export_queue_depth",
    "Items currently waiting in the export queue, by signal.",
    ("signal",))


# -------------------------------------------------------------------- exporter
class SpanExporter:
    """Ships finished traces as OTLP/JSON ``resourceSpans`` batches.

    A bounded background queue flushing batches to a sink, with retry.
    ``submit`` (and its trace-consumer alias ``export``) is the only
    producer API and is wait-free for the caller: it either enqueues and
    returns ``True`` or counts a drop and returns ``False``.  One daemon
    thread drains the queue; a sink stalled inside a delivery only ever
    stalls that thread — the queue fills, producers keep returning
    immediately.
    """

    #: The ``signal`` label of this exporter's ``repro_export_*`` series.
    signal = "spans"

    def __init__(self, sink: SinkSpec, *,
                 queue_max: int = DEFAULT_QUEUE_MAX,
                 batch_max: int = DEFAULT_BATCH_MAX,
                 flush_interval_s: float = DEFAULT_FLUSH_INTERVAL_S,
                 retry_max: int = DEFAULT_RETRY_MAX,
                 backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
                 backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
                 resource: Optional[dict] = None,
                 name: Optional[str] = None) -> None:
        self._sink = resolve_sink(sink)
        self._queue_max = max(1, queue_max)
        self._batch_max = max(1, batch_max)
        self._flush_interval_s = flush_interval_s
        self._retry_max = max(0, retry_max)
        self._backoff_base_s = backoff_base_s
        self._backoff_cap_s = backoff_cap_s
        self._resource = dict(resource or {})
        self._cond = threading.Condition()
        self._items: "deque" = deque()
        self._inflight = 0
        self._closed = False
        self.enqueued = 0
        self.exported = 0
        self.dropped = 0
        self.retries = 0
        self._thread = threading.Thread(
            target=self._run, daemon=True,
            name=name or f"repro-export-{self.signal}")
        self._thread.start()

    # ----------------------------------------------------------------- producer
    def submit(self, item: Trace) -> bool:
        """Enqueue one trace; never blocks.  ``False`` means dropped+counted."""
        with self._cond:
            if self._closed:
                self.dropped += 1
                reason = "closed"
            elif len(self._items) >= self._queue_max:
                self.dropped += 1
                reason = "queue_full"
            else:
                self._items.append(item)
                self.enqueued += 1
                _EXPORT_QUEUE_DEPTH.labels(signal=self.signal).set(
                    len(self._items))
                self._cond.notify()
                return True
        _EXPORT_DROPPED.labels(signal=self.signal, reason=reason).inc()
        return False

    def export(self, trace: Trace) -> bool:
        """Trace-consumer entry point (``add_trace_consumer`` compatible)."""
        return self.submit(trace)

    # ------------------------------------------------------------------- control
    def flush(self, timeout_s: float = 5.0) -> bool:
        """Wait until the queue drains (or ``timeout_s``); ``True`` when empty."""
        deadline = time.monotonic() + timeout_s
        with self._cond:
            self._cond.notify_all()
            while self._items or self._inflight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(min(remaining, 0.05))
            return True

    def close(self, timeout_s: float = 5.0) -> None:
        """Stop accepting items, drain best-effort, and join the worker."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout_s)

    def stats(self) -> Dict[str, int]:
        with self._cond:
            return {
                "enqueued": self.enqueued,
                "exported": self.exported,
                "dropped": self.dropped,
                "retries": self.retries,
                "queued": len(self._items),
            }

    def __enter__(self) -> "SpanExporter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -------------------------------------------------------------------- worker
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._items and not self._closed:
                    self._cond.wait(self._flush_interval_s)
                if not self._items and self._closed:
                    return
                batch = [self._items.popleft()
                         for _ in range(min(len(self._items), self._batch_max))]
                self._inflight = len(batch)
                _EXPORT_QUEUE_DEPTH.labels(signal=self.signal).set(
                    len(self._items))
            try:
                self._deliver(batch)
            finally:
                with self._cond:
                    self._inflight = 0
                    self._cond.notify_all()

    def _deliver(self, batch: List[Trace]) -> None:
        try:
            payload = spans_payload(batch, self._resource)
        except Exception:
            self._count_drop(len(batch), "encode_error")
            return
        delay = self._backoff_base_s
        for attempt in range(self._retry_max + 1):
            try:
                self._sink(payload)
            except Exception:
                if attempt >= self._retry_max:
                    break
                with self._cond:
                    self.retries += 1
                _EXPORT_RETRIES.labels(signal=self.signal).inc()
                time.sleep(min(delay, self._backoff_cap_s))
                delay *= 2
            else:
                with self._cond:
                    self.exported += len(batch)
                _EXPORT_BATCHES.labels(signal=self.signal).inc()
                _EXPORT_ITEMS.labels(signal=self.signal).inc(len(batch))
                return
        self._count_drop(len(batch), "delivery_failed")

    def _count_drop(self, amount: int, reason: str) -> None:
        with self._cond:
            self.dropped += amount
        _EXPORT_DROPPED.labels(signal=self.signal, reason=reason).inc(amount)


# ------------------------------------------------------------------ trace ring
class TraceRing:
    """A bounded in-memory ring of recent finished traces (``/traces`` source).

    ``add`` is a valid trace consumer; the oldest trace falls off when the
    ring is full.  Reads return a most-recent-first list copy.
    """

    def __init__(self, capacity: int = 64) -> None:
        self._traces: "deque[Trace]" = deque(maxlen=max(1, int(capacity)))
        self._lock = threading.Lock()

    def add(self, trace: Trace) -> None:
        with self._lock:
            self._traces.append(trace)

    def traces(self) -> List[Trace]:
        with self._lock:
            return list(reversed(self._traces))

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


# ---------------------------------------------------------- installed exporters
_INSTALLED_LOCK = threading.Lock()
_INSTALLED: Dict[str, SpanExporter] = {}
_ENV_LOCK = threading.Lock()
_ENV_EXPORTER: Optional[SpanExporter] = None
_ENV_SPEC: Optional[str] = None


def install_span_exporter(exporter: SpanExporter, key: str = "otlp") -> None:
    """Register an exporter so every finished owned trace ships through it."""
    with _INSTALLED_LOCK:
        _INSTALLED[key] = exporter
    add_trace_consumer(key, exporter.export)


def uninstall_span_exporter(key: str = "otlp") -> None:
    remove_trace_consumer(key)
    with _INSTALLED_LOCK:
        _INSTALLED.pop(key, None)


def flush_span_exporters(timeout_s: float = 5.0) -> bool:
    """Drain every installed exporter within one shared deadline.

    Covers exporters installed by :func:`install_span_exporter` and the
    ``REPRO_OTLP_SINK`` one; ``True`` when every queue emptied in time.
    """
    with _INSTALLED_LOCK:
        exporters = list(_INSTALLED.values())
    deadline = time.monotonic() + timeout_s
    drained = True
    for exporter in exporters:
        drained = exporter.flush(deadline - time.monotonic()) and drained
    return drained


def ensure_env_exporter() -> Optional[SpanExporter]:
    """Install, retarget, or retire the ``REPRO_OTLP_SINK`` span exporter.

    Idempotent and cheap when nothing changed; called lazily by the trace
    layer on every finished traced request.  Returns the active exporter
    (``None`` when the variable is unset).
    """
    global _ENV_EXPORTER, _ENV_SPEC
    spec = os.environ.get(OTLP_SINK_ENV, "").strip() or None
    with _ENV_LOCK:
        if spec == _ENV_SPEC:
            return _ENV_EXPORTER
        if _ENV_EXPORTER is not None:
            uninstall_span_exporter(ENV_CONSUMER_KEY)
            _ENV_EXPORTER.close(timeout_s=1.0)
            _ENV_EXPORTER = None
        _ENV_SPEC = spec
        if spec:
            _ENV_EXPORTER = SpanExporter(spec)
            install_span_exporter(_ENV_EXPORTER, ENV_CONSUMER_KEY)
        return _ENV_EXPORTER
