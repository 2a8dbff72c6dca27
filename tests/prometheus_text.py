"""A strict Prometheus text-exposition parser for the test suites.

:func:`validate_prometheus_text` proves a ``/metrics`` payload rendered by
:mod:`repro.obs.metrics` is actually ingestible by a real scraper.  It
lives with the tests because only tests call it.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)(?: (?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$'
)
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def _split_label_body(body: str) -> List[Tuple[str, str]]:
    """``a="x",b="y"`` → pairs, honouring escaped quotes inside values."""
    pairs: List[Tuple[str, str]] = []
    index = 0
    while index < len(body):
        match = re.match(r'[a-zA-Z_][a-zA-Z0-9_]*="', body[index:])
        if not match:
            raise ValueError(f"malformed label body at offset {index}: {body!r}")
        end = index + match.end()
        while end < len(body):
            if body[end] == "\\":
                end += 2
                continue
            if body[end] == '"':
                break
            end += 1
        if end >= len(body):
            raise ValueError(f"unterminated label value: {body!r}")
        pair = body[index:end + 1]
        parsed = _LABEL_PAIR_RE.match(pair)
        if not parsed:
            raise ValueError(f"malformed label pair: {pair!r}")
        pairs.append((parsed.group("name"), parsed.group("value")))
        index = end + 1
        if index < len(body):
            if body[index] != ",":
                raise ValueError(f"expected ',' between labels: {body!r}")
            index += 1
    return pairs


def _parse_sample_value(text: str) -> float:
    if text in ("+Inf", "Inf"):
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    if text == "NaN":
        return float("nan")
    return float(text)  # raises ValueError on garbage


def validate_prometheus_text(text: str) -> Dict[str, str]:
    """Strictly parse a Prometheus text exposition; ``{family: kind}`` on success.

    Raises :class:`ValueError` on anything a real scraper would reject or
    misread: malformed lines or labels, a family declared by ``# TYPE``
    more than once, samples appearing before their ``# TYPE``, interleaved
    family groups, duplicate series, and histogram inconsistencies
    (missing ``+Inf`` bucket, non-cumulative buckets, ``_count`` disagreeing
    with the ``+Inf`` bucket, missing ``_sum``/``_count``).  The tests run
    it against live ``/metrics`` payloads.
    """
    kinds: Dict[str, str] = {}
    closed: set = set()          # families whose sample group has ended
    current: Optional[str] = None
    seen_series: set = set()
    histograms: Dict[str, dict] = {}

    def family_of(name: str) -> str:
        for base, kind in kinds.items():
            if kind == "histogram" and name.startswith(base) and \
                    name[len(base):] in _HISTOGRAM_SUFFIXES:
                return base
        return name

    for line_number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            fields = line.split(None, 3)
            if len(fields) < 3 or fields[1] not in ("HELP", "TYPE"):
                continue  # free-form comment: legal, ignored
            name = fields[2]
            if fields[1] == "TYPE":
                kind = fields[3].strip() if len(fields) > 3 else ""
                if kind not in ("counter", "gauge", "histogram", "summary",
                                "untyped"):
                    raise ValueError(
                        f"line {line_number}: invalid TYPE {kind!r} for {name}")
                if name in kinds:
                    raise ValueError(
                        f"line {line_number}: duplicate TYPE for family {name}")
                if name in closed or name == current:
                    raise ValueError(
                        f"line {line_number}: TYPE for {name} after its samples")
                kinds[name] = kind
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {line_number}: malformed sample: {line!r}")
        sample_name = match.group("name")
        label_body = match.group("labels")
        pairs = _split_label_body(label_body) if label_body else []
        label_names = [name for name, _ in pairs]
        if len(set(label_names)) != len(label_names):
            raise ValueError(
                f"line {line_number}: duplicate label name in {line!r}")
        try:
            value = _parse_sample_value(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {line_number}: unparseable value in {line!r}") from None
        base = family_of(sample_name)
        if base not in kinds:
            raise ValueError(
                f"line {line_number}: sample for {sample_name} before its TYPE")
        if base != current:
            if base in closed:
                raise ValueError(
                    f"line {line_number}: family {base} interleaved with others")
            if current is not None:
                closed.add(current)
            current = base
        series_key = (sample_name, tuple(sorted(pairs)))
        if series_key in seen_series:
            raise ValueError(
                f"line {line_number}: duplicate series {sample_name}"
                f"{dict(pairs)}")
        seen_series.add(series_key)
        if kinds[base] == "histogram":
            suffix = sample_name[len(base):]
            if suffix not in _HISTOGRAM_SUFFIXES:
                raise ValueError(
                    f"line {line_number}: stray sample {sample_name} in "
                    f"histogram family {base}")
            labels = dict(pairs)
            series_id = tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le"))
            state = histograms.setdefault(base, {}).setdefault(
                series_id, {"buckets": [], "sum": None, "count": None})
            if suffix == "_bucket":
                if "le" not in labels:
                    raise ValueError(
                        f"line {line_number}: histogram bucket without le label")
                state["buckets"].append(
                    (_parse_sample_value(labels["le"]), value))
            elif suffix == "_sum":
                state["sum"] = value
            else:
                state["count"] = value
    for base, series in histograms.items():
        for series_id, state in series.items():
            buckets = state["buckets"]
            if not buckets:
                raise ValueError(f"histogram {base}{dict(series_id)}: no buckets")
            bounds = [bound for bound, _ in buckets]
            if bounds != sorted(bounds):
                raise ValueError(
                    f"histogram {base}{dict(series_id)}: le bounds not sorted")
            counts = [count for _, count in buckets]
            if counts != sorted(counts):
                raise ValueError(
                    f"histogram {base}{dict(series_id)}: buckets not cumulative")
            if bounds[-1] != float("inf"):
                raise ValueError(
                    f"histogram {base}{dict(series_id)}: missing +Inf bucket")
            if state["count"] is None or state["sum"] is None:
                raise ValueError(
                    f"histogram {base}{dict(series_id)}: missing _sum/_count")
            if state["count"] != counts[-1]:
                raise ValueError(
                    f"histogram {base}{dict(series_id)}: _count "
                    f"{state['count']} != +Inf bucket {counts[-1]}")
    return kinds
