"""Structured tracing: where the time goes inside one explanation.

A :class:`Tracer` records a tree of :class:`Span`s — name, attributes, wall
and CPU time, parent id — for one request.  The engine owns the request
root: when tracing is enabled it activates a fresh tracer for the duration
of :meth:`~repro.core.engine.FedexExplainer.explain` and attaches the
finished :class:`Trace` to the report, where it renders as a text tree
(:meth:`Trace.render_text`) or dumps as JSONL.

Everything below the engine — backends, caches, scans, locks — reports
through the *ambient* tracer (:func:`current_tracer`), a
:mod:`contextvars` variable that is only ever set while a traced request is
running.  When nothing is active, :func:`current_tracer` returns the
module-level :data:`NOOP_TRACER`, whose span/event methods are empty
no-allocation stubs: instrumentation on the hot path costs one context-var
read and an attribute check per call site.  ``bench_backends.py`` asserts
this disabled-mode overhead stays under 2% of the contribution phase.

Enabling traces:

* ``REPRO_TRACE=1`` (or ``true``/``yes``/``on``) — every explain carries a
  ``report.trace``.
* ``REPRO_TRACE=/path/to/traces.jsonl`` — additionally appends every
  finished trace to the file, one span per line (:func:`read_traces` loads
  them back).
* programmatically, ``with tracing(): ...`` — forces tracing on (or off,
  ``tracing(False)``) regardless of the environment.

High-frequency signals (cache lookups, contended lock waits) are
recorded as aggregated *events* — one span per (parent, name, labels)
combination with a ``count`` attribute and summed numeric fields — so a
workload with thousands of cache hits produces a bounded trace.

Worker processes cannot share the parent's tracer; the process backend runs
a local tracer per batch and ships the finished span dicts home with the
batch result, where :meth:`Tracer.attach_spans` grafts them under the
parent-side batch span (ids remapped, hierarchy preserved).

This module is dependency-free (stdlib only) and safe to import from any
layer of the package.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "Trace",
    "NOOP_TRACER",
    "current_tracer",
    "tracing",
    "tracing_enabled",
    "trace_path",
    "begin_request",
    "end_request",
    "append_jsonl",
    "read_traces",
    "add_trace_consumer",
    "remove_trace_consumer",
]

#: Environment variable controlling tracing: unset/``0`` disables, a truthy
#: flag enables, anything else is a JSONL destination path (and enables).
TRACE_ENV = "REPRO_TRACE"

_TRUTHY_FLAGS = frozenset({"1", "true", "yes", "on"})


class Span:
    """One completed (or in-flight) unit of work inside a trace.

    ``started_s`` is the offset from the trace origin; ``wall_s``/``cpu_s``
    are filled when the span's context manager exits.  Aggregated event
    spans carry a ``count`` attribute and zero durations.
    """

    __slots__ = ("span_id", "parent_id", "name", "attrs",
                 "started_s", "wall_s", "cpu_s")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 attrs: Optional[dict] = None, started_s: float = 0.0,
                 wall_s: float = 0.0, cpu_s: float = 0.0) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs if attrs is not None else {}
        self.started_s = started_s
        self.wall_s = wall_s
        self.cpu_s = cpu_s

    @property
    def is_event(self) -> bool:
        """Whether this span is an aggregated event (counted, not timed)."""
        return "count" in self.attrs and self.wall_s == 0.0

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attrs": dict(self.attrs),
            "started_s": self.started_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(
            span_id=int(payload["span_id"]),
            parent_id=(None if payload.get("parent_id") is None
                       else int(payload["parent_id"])),
            name=str(payload["name"]),
            attrs=dict(payload.get("attrs") or {}),
            started_s=float(payload.get("started_s", 0.0)),
            wall_s=float(payload.get("wall_s", 0.0)),
            cpu_s=float(payload.get("cpu_s", 0.0)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, wall={self.wall_s:.6f}s)")


class _ActiveSpan:
    """Context manager measuring one span; supports attribute updates."""

    __slots__ = ("_tracer", "span", "_wall0", "_cpu0")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._push(self.span)
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self.span.started_s = self._wall0 - self._tracer._origin
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.wall_s = time.perf_counter() - self._wall0
        self.span.cpu_s = time.process_time() - self._cpu0
        if exc_type is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self.span)
        return False

    def set(self, key: str, value) -> None:
        """Set one attribute on the underlying span."""
        self.span.attrs[key] = value

    def add(self, key: str, amount=1) -> None:
        """Add to a numeric attribute (created at zero)."""
        self.span.attrs[key] = self.span.attrs.get(key, 0) + amount


class _NoopSpan:
    """The do-nothing span handle of the disabled path."""

    __slots__ = ()

    span = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value) -> None:
        pass

    def add(self, key: str, amount=1) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """The disabled tracer: every method is an empty stub.

    A single module-level instance (:data:`NOOP_TRACER`) is returned by
    :func:`current_tracer` whenever no trace is active, so call sites pay
    one attribute check (``tracer.enabled``) or one stub call — nothing is
    allocated, no lock is touched.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, parent: Optional[Span] = None, **attrs) -> _NoopSpan:
        return _NOOP_SPAN

    def event(self, name: str, labels: Optional[dict] = None, n: int = 1,
              parent: Optional[Span] = None, **amounts) -> None:
        pass

    def add_span(self, name: str, parent: Optional[Span] = None,
                 started_pc: Optional[float] = None, wall_s: float = 0.0,
                 cpu_s: float = 0.0, **attrs) -> None:
        return None

    def attach_spans(self, payload, parent: Optional[Span] = None) -> None:
        pass

    def current_span(self) -> Optional[Span]:
        return None

    def export(self) -> List[dict]:
        return []

    def finish(self) -> None:
        return None


#: The process-wide disabled tracer (never mutated).
NOOP_TRACER = NoopTracer()


class Tracer:
    """Collects the spans of one request (thread-safe).

    Spans are appended to one flat, locked list in creation order — parents
    always precede their children — and the tree is rebuilt from parent ids
    at render time, so pool threads can record concurrently without sharing
    mutable child lists.  Each thread keeps its own current-span stack;
    cross-thread spans pass ``parent=`` explicitly (the process backend
    captures the submitting span at prefetch time).
    """

    enabled = True

    def __init__(self) -> None:
        self.trace_id = uuid.uuid4().hex[:16]
        self.origin_epoch = time.time()
        self._origin = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._next_id = 1
        self._local = threading.local()
        # Aggregated events: (parent_id, name, labels) -> its Span.
        self._events: Dict[Tuple, Span] = {}

    # ---------------------------------------------------------------- recording
    def span(self, name: str, parent: Optional[Span] = None, **attrs) -> _ActiveSpan:
        """A new child span of ``parent`` (default: this thread's current span)."""
        parent_span = parent if parent is not None else self.current_span()
        parent_id = parent_span.span_id if parent_span is not None else None
        with self._lock:
            span = Span(self._next_id, parent_id, name, dict(attrs))
            self._next_id += 1
            self._spans.append(span)
        return _ActiveSpan(self, span)

    def event(self, name: str, labels: Optional[dict] = None, n: int = 1,
              parent: Optional[Span] = None, **amounts) -> None:
        """Count one occurrence of a high-frequency signal.

        Events with the same (parent span, name, labels) aggregate into one
        span whose ``count`` attribute accumulates and whose numeric
        ``amounts`` are summed — thousands of cache hits stay one line.
        """
        parent_span = parent if parent is not None else self.current_span()
        parent_id = parent_span.span_id if parent_span is not None else None
        label_key = tuple(sorted(labels.items())) if labels else ()
        key = (parent_id, name, label_key)
        with self._lock:
            span = self._events.get(key)
            if span is None:
                attrs = dict(labels) if labels else {}
                attrs["count"] = 0
                span = Span(self._next_id, parent_id, name, attrs,
                            started_s=time.perf_counter() - self._origin)
                self._next_id += 1
                self._spans.append(span)
                self._events[key] = span
            span.attrs["count"] += n
            for field, amount in amounts.items():
                span.attrs[field] = span.attrs.get(field, 0) + amount

    def add_span(self, name: str, parent: Optional[Span] = None,
                 started_pc: Optional[float] = None, wall_s: float = 0.0,
                 cpu_s: float = 0.0, **attrs) -> Span:
        """Record an already-measured span (e.g. a batch timed by futures).

        ``started_pc`` is a ``time.perf_counter()`` reading taken by the
        caller (the submit timestamp); it is converted to a trace-origin
        offset here.
        """
        parent_id = parent.span_id if parent is not None else None
        started_s = (started_pc - self._origin) if started_pc is not None else 0.0
        with self._lock:
            span = Span(self._next_id, parent_id, name, dict(attrs),
                        started_s=started_s, wall_s=wall_s, cpu_s=cpu_s)
            self._next_id += 1
            self._spans.append(span)
        return span

    def attach_spans(self, payload: List[dict], parent: Optional[Span] = None) -> None:
        """Graft spans shipped from another process under ``parent``.

        Span ids are remapped into this tracer's id space; the shipped
        hierarchy is preserved, and shipped roots (or spans whose parent did
        not travel with them) become children of ``parent``.  Offsets stay
        as measured in the worker (relative to *its* origin) — the
        parent-side batch span carries the authoritative submit-to-result
        timing.
        """
        if not payload:
            return
        parent_id = parent.span_id if parent is not None else None
        with self._lock:
            id_map: Dict[int, int] = {}
            shipped = [Span.from_dict(item) for item in payload]
            for span in shipped:
                id_map[span.span_id] = self._next_id
                span.span_id = self._next_id
                self._next_id += 1
            for span in shipped:
                if span.parent_id in id_map:
                    span.parent_id = id_map[span.parent_id]
                else:
                    span.parent_id = parent_id
                self._spans.append(span)

    # ------------------------------------------------------------------ queries
    def current_span(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def export(self) -> List[dict]:
        """The recorded spans as plain dicts (worker → parent shipping)."""
        with self._lock:
            return [span.to_dict() for span in self._spans]

    def finish(self) -> "Trace":
        """Seal the tracer into an immutable :class:`Trace`."""
        with self._lock:
            return Trace(self.trace_id, list(self._spans),
                         origin_epoch=self.origin_epoch)

    # ---------------------------------------------------------------- internals
    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # pragma: no cover - defensive
            stack.remove(span)


class Trace:
    """The finished spans of one request, renderable and serialisable.

    ``origin_epoch`` is the wall-clock (``time.time()``) instant of the
    trace origin — span offsets plus it give absolute timestamps, which the
    OTLP exporter needs.  Traces re-read from JSONL carry ``0.0`` (offsets
    stay exact; absolute placement is not round-tripped).
    """

    __slots__ = ("trace_id", "spans", "origin_epoch")

    def __init__(self, trace_id: str, spans: List[Span],
                 origin_epoch: float = 0.0) -> None:
        self.trace_id = trace_id
        self.spans = spans
        self.origin_epoch = origin_epoch

    # ------------------------------------------------------------------ queries
    def find(self, name: str) -> List[Span]:
        """Every span with this exact name."""
        return [span for span in self.spans if span.name == name]

    def span_names(self) -> List[str]:
        """Distinct span names, in first-seen order."""
        seen: Dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.name, None)
        return list(seen)

    def total_wall(self, name: str) -> float:
        """Summed wall seconds of every span with this name."""
        return sum(span.wall_s for span in self.find(name))

    def children(self, span: Optional[Span]) -> List[Span]:
        """Direct children of a span (or the roots, for ``None``)."""
        parent_id = span.span_id if span is not None else None
        return [child for child in self.spans if child.parent_id == parent_id]

    # ---------------------------------------------------------------- rendering
    def render_text(self) -> str:
        """The span tree as indented text, one span per line."""
        by_parent: Dict[Optional[int], List[Span]] = {}
        known = {span.span_id for span in self.spans}
        for span in self.spans:
            parent = span.parent_id if span.parent_id in known else None
            by_parent.setdefault(parent, []).append(span)
        lines = [f"trace {self.trace_id}"]

        def walk(parent_id: Optional[int], depth: int) -> None:
            for span in by_parent.get(parent_id, ()):
                indent = "  " * depth
                if span.is_event:
                    extras = {k: v for k, v in span.attrs.items() if k != "count"}
                    suffix = f"  {_format_attrs(extras)}" if extras else ""
                    lines.append(
                        f"{indent}{span.name} ×{span.attrs['count']}{suffix}"
                    )
                else:
                    suffix = f"  {_format_attrs(span.attrs)}" if span.attrs else ""
                    lines.append(
                        f"{indent}{span.name} {span.wall_s * 1e3:.1f}ms "
                        f"(cpu {span.cpu_s * 1e3:.1f}ms){suffix}"
                    )
                walk(span.span_id, depth + 1)

        walk(None, 1)
        return "\n".join(lines)

    # ------------------------------------------------------------- serialisation
    def to_dicts(self) -> List[dict]:
        """One plain dict per span, each stamped with the trace id."""
        return [dict(span.to_dict(), trace_id=self.trace_id) for span in self.spans]

    def to_jsonl(self) -> str:
        """The trace as JSONL — one span per line, trailing newline included.

        Keys keep their insertion order (no ``sort_keys``): attr order is
        part of a span's rendering, so a dumped trace must read back and
        render exactly like the live one.
        """
        return "".join(
            json.dumps(item, default=str) + "\n" for item in self.to_dicts()
        )

    @classmethod
    def from_dicts(cls, items: List[dict]) -> "Trace":
        trace_ids = {item.get("trace_id") for item in items}
        if len(trace_ids) > 1:
            raise ValueError(f"lines from multiple traces: {sorted(map(str, trace_ids))}")
        trace_id = next(iter(trace_ids), None) or "unknown"
        return cls(str(trace_id), [Span.from_dict(item) for item in items])

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Parse one trace back from its :meth:`to_jsonl` form."""
        items = [json.loads(line) for line in text.splitlines() if line.strip()]
        return cls.from_dicts(items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.trace_id!r}, spans={len(self.spans)})"


def _format_attrs(attrs: dict) -> str:
    parts = []
    for key, value in attrs.items():
        if isinstance(value, float):
            value = f"{value:.6g}"
        parts.append(f"{key}={value}")
    return "{" + " ".join(parts) + "}"


# ------------------------------------------------------------------ activation
_ACTIVE: "contextvars.ContextVar[Optional[Tracer]]" = contextvars.ContextVar(
    "repro_active_tracer", default=None
)
_FORCED: "contextvars.ContextVar[Optional[bool]]" = contextvars.ContextVar(
    "repro_tracing_forced", default=None
)


def current_tracer():
    """The tracer of the request running on this thread (noop when none)."""
    tracer = _ACTIVE.get()
    return NOOP_TRACER if tracer is None else tracer


def trace_destination() -> Optional[str]:
    """The raw ``REPRO_TRACE`` value when tracing is enabled by it."""
    value = os.environ.get(TRACE_ENV, "").strip()
    if not value or value == "0" or value.lower() in ("false", "no", "off"):
        return None
    return value


def trace_path() -> Optional[str]:
    """The JSONL dump path, when ``REPRO_TRACE`` names one (not just a flag)."""
    value = trace_destination()
    if value is None or value.lower() in _TRUTHY_FLAGS:
        return None
    return value


def tracing_enabled() -> bool:
    """Whether a new request should be traced (forced scope beats the env)."""
    forced = _FORCED.get()
    if forced is not None:
        return forced
    return trace_destination() is not None


@contextmanager
def tracing(enabled: bool = True) -> Iterator[None]:
    """Force tracing on (or off) for the dynamic extent of the block.

    The innermost ``tracing(...)`` wins over outer blocks and over the
    ``REPRO_TRACE`` environment variable — ``tracing(False)`` yields a
    genuinely untraced run even under a traced test harness.
    """
    token = _FORCED.set(bool(enabled))
    try:
        yield
    finally:
        _FORCED.reset(token)


def begin_request() -> Tuple[object, Optional[object]]:
    """Start-of-request hook for the engine: ``(tracer, activation token)``.

    Reuses an already-active tracer (token ``None`` — someone outer owns
    it), creates and activates a fresh one when tracing is enabled, and
    hands back :data:`NOOP_TRACER` otherwise.
    """
    active = _ACTIVE.get()
    if active is not None:
        return active, None
    if tracing_enabled():
        tracer = Tracer()
        return tracer, _ACTIVE.set(tracer)
    return NOOP_TRACER, None


def end_request(tracer, token) -> Optional[Trace]:
    """End-of-request hook: deactivate, finish, dump and fan out an owned tracer.

    Returns the finished :class:`Trace` when this request owned the tracer
    (``token`` from :func:`begin_request`), ``None`` otherwise.  Registered
    trace consumers (exporters, trace rings) are notified with the finished
    trace; a failing consumer never fails the request.
    """
    if token is None:
        return None
    _ACTIVE.reset(token)
    trace = tracer.finish()
    path = trace_path()
    if path is not None:
        try:
            append_jsonl(trace, path)
        except OSError:  # tracing must never fail a request
            pass
    _notify_consumers(trace)
    return trace


# ------------------------------------------------------------ trace consumers
_CONSUMER_LOCK = threading.Lock()
_CONSUMERS: "Dict[str, object]" = {}

#: Environment variable naming an OTLP sink (file path, http(s) URL); when
#: set, :mod:`repro.obs.export` lazily installs a span exporter the first
#: time a traced request finishes.
OTLP_SINK_ENV = "REPRO_OTLP_SINK"


def add_trace_consumer(key: str, consumer) -> None:
    """Register ``consumer(trace)`` to run on every finished owned trace.

    Re-registering a key replaces its consumer.  Consumers run on the
    request thread and must be fast and non-blocking (exporters enqueue and
    return); exceptions are swallowed.
    """
    with _CONSUMER_LOCK:
        _CONSUMERS[key] = consumer


def remove_trace_consumer(key: str) -> None:
    with _CONSUMER_LOCK:
        _CONSUMERS.pop(key, None)


def _notify_consumers(trace: Trace) -> None:
    # Install (or retire, when the env var went away) the REPRO_OTLP_SINK
    # exporter before fan-out, so the very first traced request exports.
    with _CONSUMER_LOCK:
        env_installed = "otlp-env" in _CONSUMERS
    if env_installed or os.environ.get(OTLP_SINK_ENV, "").strip():
        try:
            from .export import ensure_env_exporter
            ensure_env_exporter()
        except Exception:  # the env exporter must never fail a request
            pass
    with _CONSUMER_LOCK:
        consumers = list(_CONSUMERS.values())
    for consumer in consumers:
        try:
            consumer(trace)
        except Exception:  # a broken consumer must never fail a request
            continue


# ---------------------------------------------------------------- JSONL files
_DUMP_LOCK = threading.Lock()


def append_jsonl(trace: Trace, path: str) -> None:
    """Append one trace to a JSONL file (whole-trace atomic per process)."""
    payload = trace.to_jsonl()
    with _DUMP_LOCK:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(payload)


def read_traces(path: str) -> List[Trace]:
    """Load every trace from a JSONL dump, in file order."""
    grouped: "Dict[str, List[dict]]" = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            item = json.loads(line)
            grouped.setdefault(str(item.get("trace_id")), []).append(item)
    return [Trace.from_dicts(items) for items in grouped.values()]
