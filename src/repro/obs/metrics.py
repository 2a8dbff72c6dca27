"""The central metrics registry: counters, gauges and histograms.

One :class:`MetricsRegistry` holds labeled metric families behind a single
lock, so concurrent increments from service workers count exactly (``+=``
on a shared attribute silently loses updates under contention).  Families
are created on first use and type-checked on re-registration, mirroring the
Prometheus client model without the dependency:

* :class:`Counter` — monotonically increasing totals (``inc``).
* :class:`Gauge` — point-in-time values (``set``/``inc``/``dec``/``set_max``).
* :class:`Histogram` — a bounded log-bucket distribution with interpolated
  quantiles (p50/p95/p99) plus sum and count; bucket bounds default to
  powers of two from one microsecond to ~70 minutes, so request latencies
  land with ~2× resolution at every scale for a fixed 33-bucket cost.

Hot-path module counters (:data:`~repro.core.backends.process.PROCESS_STATS`,
:data:`~repro.dataframe.column.FINGERPRINT_STATS`) stay bare ``+=`` slots —
their write paths are far hotter than any scrape — and surface through
*collector callbacks* (:meth:`MetricsRegistry.register_collector`) that read
them only at scrape time.

:meth:`MetricsRegistry.render_text` emits the Prometheus text exposition
format — ``# HELP``/``# TYPE`` headers, ``name{label="v"} value`` samples,
``_bucket``/``_sum``/``_count`` for histograms — the payload a ``/metrics``
endpoint serves verbatim.

The module-level :data:`REGISTRY` aggregates process-wide signals; the
service and each cache store own their own registries, merged into one
valid exposition by :func:`render_registries` (namespaced, deduped) for
:meth:`~repro.service.service.ExplanationService.render_metrics`.

Registries also cross process boundaries: :meth:`MetricsRegistry.dump`
produces a plain picklable state, :func:`registry_delta` diffs two dumps,
and :meth:`MetricsRegistry.merge` folds a delta into another registry under
extra labels — the mechanism pool workers use to ship per-batch metrics
home (``labels={"worker": pid}``).

Dependency-free (stdlib only); importable from any layer.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "REGISTRY",
    "default_buckets",
    "capture",
    "registry_delta",
    "render_registries",
    "namespace_metric",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def default_buckets() -> Tuple[float, ...]:
    """Log-2 bucket bounds from 1µs to ~70 minutes (33 buckets + implicit +Inf)."""
    return tuple(1e-6 * (2.0 ** i) for i in range(33))


class Counter:
    """One monotonically increasing series (a labeled child of its family)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (amount={amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Gauge:
    """One point-in-time series."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is larger (running maximum)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Histogram:
    """A log-bucket distribution: bounded memory, interpolated quantiles.

    ``counts[i]`` holds observations with ``value <= bounds[i]`` (and above
    the previous bound); the final slot is the ``+Inf`` overflow.  Quantiles
    interpolate linearly inside the winning bucket, which for log-2 bounds
    keeps the estimate within ~2× of the true value — the right precision
    for latency percentiles at a fixed 33-counter cost.
    """

    __slots__ = ("_lock", "bounds", "counts", "sum", "count")

    def __init__(self, lock: threading.RLock,
                 bounds: Optional[Sequence[float]] = None) -> None:
        self._lock = lock
        chosen = tuple(bounds) if bounds is not None else default_buckets()
        if not chosen or list(chosen) != sorted(chosen):
            raise ValueError(f"histogram bounds must be sorted and non-empty: {chosen}")
        self.bounds = chosen
        self.counts = [0] * (len(chosen) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.counts[bisect_left(self.bounds, value)] += 1
            self.sum += value
            self.count += 1

    def quantile(self, q: float) -> float:
        """The interpolated ``q``-quantile (0 when nothing was observed)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {q}")
        with self._lock:
            return _quantile(self.bounds, self.counts, self.count, q)

    def percentiles(self) -> Dict[str, float]:
        """The standard p50/p95/p99 triple."""
        with self._lock:
            return {
                "p50": _quantile(self.bounds, self.counts, self.count, 0.50),
                "p95": _quantile(self.bounds, self.counts, self.count, 0.95),
                "p99": _quantile(self.bounds, self.counts, self.count, 0.99),
            }

    @property
    def mean(self) -> float:
        with self._lock:
            return self.sum / self.count if self.count else 0.0

    def state(self) -> Tuple[List[int], float, int]:
        """An atomic ``(counts, sum, count)`` snapshot.

        Readers that pull buckets and totals separately can interleave with
        an ``observe`` and render a histogram whose ``+Inf`` cumulative
        disagrees with its ``_count`` — invalid under a strict scraper.
        """
        with self._lock:
            return list(self.counts), self.sum, self.count

    def merge_state(self, counts: Sequence[int], total_sum: float,
                    count: int) -> None:
        """Fold a dumped bucket state into this child (cross-process merge).

        Ignores payloads whose bucket count disagrees — a worker built
        against different bounds must not corrupt the parent's series.
        """
        with self._lock:
            if len(counts) != len(self.counts):
                return
            for index, bucket_count in enumerate(counts):
                self.counts[index] += bucket_count
            self.sum += total_sum
            self.count += count

    def _reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0


def _quantile(bounds: Sequence[float], counts: Sequence[int],
              total: int, q: float) -> float:
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        cumulative += bucket_count
        if cumulative >= rank:
            if index >= len(bounds):
                # Overflow bucket: no upper bound to interpolate toward.
                return bounds[-1]
            low = bounds[index - 1] if index > 0 else 0.0
            high = bounds[index]
            fraction = (rank - (cumulative - bucket_count)) / bucket_count
            return low + (high - low) * fraction
    return bounds[-1]  # pragma: no cover - unreachable (cumulative == total)


class _MergedHistogram:
    """Read-only bucket-merge of a histogram family's children."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...], counts: List[int],
                 total_sum: float, count: int) -> None:
        self.bounds = bounds
        self.counts = counts
        self.sum = total_sum
        self.count = count

    def quantile(self, q: float) -> float:
        return _quantile(self.bounds, self.counts, self.count, q)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric with labeled children (all the same kind)."""

    __slots__ = ("name", "kind", "help", "labelnames", "buckets",
                 "_lock", "_children")

    def __init__(self, name: str, kind: str, help_text: str,
                 labelnames: Tuple[str, ...], lock: threading.RLock,
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self.buckets = tuple(buckets) if buckets is not None else None
        self._lock = lock
        self._children: "Dict[Tuple[str, ...], object]" = {}

    # ------------------------------------------------------------------ children
    def labels(self, **labels):
        """The child series for a label combination (created on first use)."""
        key = self._label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "histogram":
                    child = Histogram(self._lock, self.buckets)
                else:
                    child = _KINDS[self.kind](self._lock)
                self._children[key] = child
            return child

    def get(self, **labels):
        """The child for a label combination, or ``None`` (no creation)."""
        with self._lock:
            return self._children.get(self._label_key(labels))

    def label_values(self) -> List[Tuple[str, ...]]:
        """Label-value tuples with an existing child, sorted."""
        with self._lock:
            return sorted(self._children)

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())

    # ------------------------------------------ unlabeled-family conveniences
    def inc(self, amount: float = 1) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def set_max(self, value: float) -> None:
        self.labels().set_max(value)

    def dec(self, amount: float = 1) -> None:
        self.labels().dec(amount)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    @property
    def value(self) -> float:
        return self.labels().value

    def total(self) -> float:
        """Summed value across every child (counters/gauges)."""
        with self._lock:
            return sum(child.value for child in self._children.values())

    def aggregate(self) -> _MergedHistogram:
        """Bucket-merge of every child (histogram families only)."""
        if self.kind != "histogram":
            raise ValueError(f"{self.name} is a {self.kind}, not a histogram")
        bounds = self.buckets if self.buckets is not None else default_buckets()
        counts = [0] * (len(bounds) + 1)
        total_sum = 0.0
        count = 0
        with self._lock:
            for child in self._children.values():
                for index, bucket_count in enumerate(child.counts):
                    counts[index] += bucket_count
                total_sum += child.sum
                count += child.count
        return _MergedHistogram(bounds, counts, total_sum, count)

    # ---------------------------------------------------------------- internals
    def _label_key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name} takes labels {self.labelnames}, got "
                f"{tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)


class MetricsRegistry:
    """Get-or-create registry of metric families plus scrape-time collectors."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: "Dict[str, _Family]" = {}
        self._collectors: "Dict[str, Callable[[], Iterable[tuple]]]" = {}

    # ------------------------------------------------------------ registration
    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> _Family:
        return self._family(name, "counter", help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()) -> _Family:
        return self._family(name, "gauge", help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> _Family:
        return self._family(name, "histogram", help_text, labelnames, buckets)

    def register_collector(self, key: str,
                           collect: Callable[[], Iterable[tuple]]) -> None:
        """Register a scrape-time callback by key (re-registering replaces).

        ``collect()`` yields ``(name, kind, help, value, labels)`` tuples —
        the bridge for hot module counters that must stay bare ``+=`` slots
        on their write path and are only read when someone scrapes.
        """
        with self._lock:
            self._collectors[key] = collect

    def unregister_collector(self, key: str) -> None:
        with self._lock:
            self._collectors.pop(key, None)

    # ----------------------------------------------------------------- queries
    def families(self) -> List[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> Dict[str, float]:
        """Flat ``name{label="v"}`` → value map (tests/debugging).

        Histograms contribute their ``_sum`` and ``_count`` series;
        collector samples are included.
        """
        payload: Dict[str, float] = {}
        for family in self.families():
            for key, child in family.children():
                series = _series_name(family.name, family.labelnames, key)
                if family.kind == "histogram":
                    payload[series + "_sum"] = child.sum
                    payload[series + "_count"] = float(child.count)
                else:
                    payload[series] = child.value
        for name, _kind, _help, value, labels in self._collect():
            label_key = tuple(str(labels[k]) for k in sorted(labels))
            payload[_series_name(name, tuple(sorted(labels)), label_key)] = value
        return payload

    def reset(self) -> None:
        """Zero every registered series (tests; collectors are untouched)."""
        with self._lock:
            for family in self._families.values():
                for _key, child in family.children():
                    child._reset()

    # ------------------------------------------------------ dump / merge (IPC)
    def dump(self) -> Dict[str, dict]:
        """The registry's state as plain picklable data (no locks, no classes).

        The shape ``registry_delta`` diffs and :meth:`merge` consumes::

            {name: {"kind", "help", "labelnames", "buckets",
                    "series": {label_values_tuple: value-or-histogram-state}}}

        Histogram states are ``{"counts": [...], "sum": s, "count": n}``;
        counters/gauges are bare floats.  Collector samples are excluded —
        they belong to the process that registered them.
        """
        payload: Dict[str, dict] = {}
        for family in self.families():
            series: Dict[Tuple[str, ...], object] = {}
            for key, child in family.children():
                if family.kind == "histogram":
                    counts, total_sum, total_count = child.state()
                    series[key] = {
                        "counts": counts,
                        "sum": total_sum,
                        "count": total_count,
                    }
                else:
                    series[key] = child.value
            payload[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "buckets": list(family.buckets) if family.buckets is not None else None,
                "series": series,
            }
        return payload

    def merge(self, payload: Dict[str, dict],
              labels: Optional[Dict[str, str]] = None) -> None:
        """Fold a :meth:`dump`/:func:`registry_delta` payload into this registry.

        ``labels`` are appended to every series (e.g. ``{"worker": "1234"}``)
        so merged foreign state stays distinguishable from local series.
        Families that clash with an existing registration (different kind or
        label set) are skipped rather than raised — a telemetry merge must
        never break its caller.
        """
        extra = {name: str(value) for name, value in (labels or {}).items()}
        extra_names = tuple(sorted(extra))
        for name, fam in (payload or {}).items():
            base_names = tuple(fam.get("labelnames") or ())
            labelnames = base_names + tuple(
                n for n in extra_names if n not in base_names
            )
            kind = fam.get("kind")
            try:
                if kind == "histogram":
                    family = self.histogram(name, fam.get("help", ""), labelnames,
                                            buckets=fam.get("buckets"))
                elif kind == "counter":
                    family = self.counter(name, fam.get("help", ""), labelnames)
                elif kind == "gauge":
                    family = self.gauge(name, fam.get("help", ""), labelnames)
                else:
                    continue
            except ValueError:
                continue
            for key, value in fam.get("series", {}).items():
                series_labels = dict(zip(base_names, key))
                for extra_name in labelnames[len(base_names):]:
                    series_labels[extra_name] = extra[extra_name]
                try:
                    child = family.labels(**series_labels)
                except ValueError:
                    continue
                if kind == "histogram":
                    child.merge_state(value.get("counts", ()),
                                      float(value.get("sum", 0.0)),
                                      int(value.get("count", 0)))
                elif kind == "counter":
                    amount = float(value)
                    if amount > 0:
                        child.inc(amount)
                else:
                    child.set(float(value))

    # --------------------------------------------------------------- rendering
    def render_text(self, rename: Optional[Callable[[str], str]] = None,
                    seen: Optional[set] = None) -> str:
        """The registry in the Prometheus text exposition format.

        ``rename`` maps each family name to its emitted name (namespacing);
        ``seen`` is a cross-registry set of already-emitted family names —
        families whose final name is in it are skipped, and every name this
        call emits is added, so concatenating several registries cannot
        produce the duplicate ``# TYPE`` blocks scrapers reject.
        """
        final = rename if rename is not None else (lambda name: name)
        lines: List[str] = []
        emitted: set = set()
        for family in self.families():
            name = final(family.name)
            if seen is not None and name in seen:
                continue
            emitted.add(name)
            _render_family_header(lines, name, family.kind, family.help)
            for key, child in family.children():
                labels = _format_labels(family.labelnames, key)
                if family.kind == "histogram":
                    counts, total_sum, total_count = child.state()
                    cumulative = 0
                    for index, bound in enumerate(child.bounds):
                        cumulative += counts[index]
                        le = _format_labels(
                            family.labelnames + ("le",), key + (_format_float(bound),)
                        )
                        lines.append(f"{name}_bucket{le} {cumulative}")
                    cumulative += counts[-1]
                    le = _format_labels(family.labelnames + ("le",), key + ("+Inf",))
                    lines.append(f"{name}_bucket{le} {cumulative}")
                    lines.append(f"{name}_sum{labels} {_format_float(total_sum)}")
                    lines.append(f"{name}_count{labels} {total_count}")
                else:
                    lines.append(f"{name}{labels} {_format_float(child.value)}")
        collector_lines: Dict[str, List[str]] = {}
        collector_meta: Dict[str, Tuple[str, str]] = {}
        for raw_name, kind, help_text, value, labels in self._collect():
            name = final(raw_name)
            if name in emitted or (seen is not None and name in seen):
                continue
            collector_meta.setdefault(name, (kind, help_text))
            label_names = tuple(sorted(labels))
            label_key = tuple(str(labels[k]) for k in label_names)
            collector_lines.setdefault(name, []).append(
                f"{name}{_format_labels(label_names, label_key)} {_format_float(value)}"
            )
        for name, samples in collector_lines.items():
            kind, help_text = collector_meta[name]
            _render_family_header(lines, name, kind, help_text)
            lines.extend(samples)
            emitted.add(name)
        if seen is not None:
            seen.update(emitted)
        return "\n".join(lines) + ("\n" if lines else "")

    # ---------------------------------------------------------------- internals
    def _family(self, name: str, kind: str, help_text: str,
                labelnames: Sequence[str],
                buckets: Optional[Sequence[float]] = None) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        names = tuple(labelnames)
        for label in names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, names, self._lock, buckets)
                self._families[name] = family
            elif family.kind != kind or family.labelnames != names:
                raise ValueError(
                    f"metric {name} already registered as {family.kind}"
                    f"{family.labelnames}, requested {kind}{names}"
                )
            return family

    def _collect(self) -> List[tuple]:
        with self._lock:
            collectors = list(self._collectors.values())
        samples: List[tuple] = []
        for collect in collectors:
            try:
                samples.extend(collect())
            except Exception:  # a broken collector must never break a scrape
                continue
        return samples


def _render_family_header(lines: List[str], name: str, kind: str,
                          help_text: str) -> None:
    if help_text:
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
    lines.append(f"# TYPE {name} {kind}")


def _series_name(name: str, labelnames: Tuple[str, ...],
                 values: Tuple[str, ...]) -> str:
    return name + _format_labels(labelnames, values)


def _format_labels(labelnames: Tuple[str, ...], values: Tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, values)
    )
    return "{" + pairs + "}"


def _escape_label(value: str) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n")


def _format_float(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


# ------------------------------------------------------- cross-process deltas
def registry_delta(before: Dict[str, dict],
                   after: Dict[str, dict]) -> Dict[str, dict]:
    """The difference between two :meth:`MetricsRegistry.dump` snapshots.

    Counters and histograms diff arithmetically (series with a zero delta
    are dropped, so a quiet batch ships nothing); gauges are point-in-time
    and carry the ``after`` value only when it changed.  The result has the
    same shape as a dump and feeds :meth:`MetricsRegistry.merge`.
    """
    delta: Dict[str, dict] = {}
    for name, fam in after.items():
        prior = before.get(name) or {}
        prior_series = prior.get("series", {})
        series: Dict[Tuple[str, ...], object] = {}
        for key, value in fam.get("series", {}).items():
            prev = prior_series.get(key)
            if fam["kind"] == "histogram":
                if prev is None:
                    diff = {
                        "counts": list(value["counts"]),
                        "sum": value["sum"],
                        "count": value["count"],
                    }
                else:
                    diff = {
                        "counts": [a - b for a, b in
                                   zip(value["counts"], prev["counts"])],
                        "sum": value["sum"] - prev["sum"],
                        "count": value["count"] - prev["count"],
                    }
                if diff["count"]:
                    series[key] = diff
            elif fam["kind"] == "counter":
                diff_value = float(value) - float(prev or 0.0)
                if diff_value:
                    series[key] = diff_value
            else:  # gauge
                if prev is None or value != prev:
                    series[key] = value
        if series:
            entry = dict(fam)
            entry["series"] = series
            delta[name] = entry
    return delta


# ------------------------------------------------- multi-registry exposition
def namespace_metric(namespace: str, name: str) -> str:
    """``name`` prefixed into the ``repro_<namespace>_`` namespace.

    Names already carrying the target prefix pass through unchanged, so
    well-named families (``repro_service_requests_total`` in the service
    registry) keep their historical identity; anything else is re-rooted
    (``requests_total`` in the store registry → ``repro_store_requests_total``).
    """
    prefix = "repro_" if namespace in ("", "repro") else f"repro_{namespace}_"
    if name.startswith(prefix):
        return name
    if name.startswith("repro_"):
        return prefix + name[len("repro_"):]
    return prefix + name


def render_registries(parts: Sequence[Tuple[str, "MetricsRegistry"]]) -> str:
    """Several registries as ONE valid Prometheus exposition.

    ``parts`` is ``[(namespace, registry), ...]``; each registry's families
    are renamed via :func:`namespace_metric` and deduped across the whole
    payload (first occurrence wins), fixing the duplicate-family blocks a
    naive concatenation produces when two registries share a metric name.
    """
    chunks: List[str] = []
    seen: set = set()
    for namespace, registry in parts:
        text = registry.render_text(
            rename=lambda name, ns=namespace: namespace_metric(ns, name),
            seen=seen,
        )
        if text:
            chunks.append(text)
    return "".join(chunks)


#: The process-wide registry: module counters (fingerprints, process pool)
#: register collectors here; per-service and per-store registries are
#: separate and concatenated at scrape time.
REGISTRY = MetricsRegistry()


# ------------------------------------------------------------- delta capture
class _Capture:
    """A before-snapshot of a stats object, resolvable to a delta."""

    __slots__ = ("_stats", "_before")

    def __init__(self, stats) -> None:
        self._stats = stats
        self._before = stats.snapshot()

    def delta(self) -> dict:
        return self._stats.delta(self._before)


@contextmanager
def capture(stats) -> Iterator[_Capture]:
    """Scoped before/after deltas over any stats object with ``snapshot()``/``delta()``.

    ::

        with capture(PROCESS_STATS) as probe:
            run_workload()
        assert probe.delta()["shards_completed"] > 0

    Replaces the ad-hoc before/after arithmetic module-global counters
    otherwise force on callers (the counters bleed across tests).
    """
    yield _Capture(stats)
