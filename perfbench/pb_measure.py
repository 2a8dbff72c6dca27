"""Client-side measurement: the HTTP client, outcome accounting, statistics.

Everything here runs in the load-generator process.  A request's latency
is taken from just before its bytes are sent to the last byte of its
response; on the streamed endpoint the time to the first NDJSON line is
recorded too.  Every request ends in exactly one :class:`Outcome`, and an
outcome that is not ``ok`` counts as failed: a refused connection, a
timeout, a non-200 status, a stream that ends in an ``error`` event, or a
response whose report differs from the reference ("wrong bytes").
"""

from __future__ import annotations

import http.client
import json
import math
import socket
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Failure kinds, in the order the summary prints them.
FAILURE_KINDS = ("refused", "timeout", "status", "error_event", "connection",
                 "wrong_bytes")


# ----------------------------------------------------------------- statistics
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail_percentile(values: Sequence[float], wanted: int = 90,
                    min_beyond: int = 10) -> Optional[Tuple[int, float, int]]:
    """The highest percentile ``<= wanted`` with ``min_beyond`` samples above it.

    Percentiles are nearest-rank: the p-th percentile of ``n`` sorted
    samples is the one at 1-based rank ``ceil(p * n / 100)``.  Returns
    ``(percentile, value, samples_beyond)``, or ``None`` when even the
    median leaves fewer than ``min_beyond`` samples above it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for percentile in range(wanted, 49, -1):
        rank = math.ceil(percentile * n / 100)
        if rank < 1:
            continue
        beyond = n - rank
        if beyond >= min_beyond:
            return percentile, float(ordered[rank - 1]), beyond
    return None


def samples_for_percentile(wanted: int = 90, min_beyond: int = 10) -> int:
    """The fewest samples for which ``wanted`` keeps ``min_beyond`` beyond it."""
    n = min_beyond + 1
    while n - math.ceil(wanted * n / 100) < min_beyond:
        n += 1
    return n


# ------------------------------------------------------------- canonical docs
def canonical_report(document: Dict) -> bytes:
    """Canonical bytes of a report document, ``timings`` removed.

    Mirrors the server's serialiser (sorted keys, compact separators), so a
    report served over HTTP and one computed in-process compare equal
    exactly when every non-timing field is identical.
    """
    stripped = {key: value for key, value in document.items() if key != "timings"}
    return json.dumps(stripped, separators=(",", ":"), sort_keys=True).encode("utf-8")


def canonical_payload(payload: bytes) -> bytes:
    """Canonical report of a response payload (plain body or final stream event)."""
    document = json.loads(payload)
    if "event" in document:
        document = document["report"]
    return canonical_report(document)


# --------------------------------------------------------------------- client
@dataclass
class Outcome:
    """What one explain request returned, as the client saw it."""

    failure: Optional[str] = None
    status: Optional[int] = None
    latency_s: float = 0.0
    first_event_s: float = 0.0
    payload: bytes = b""

    @property
    def ok(self) -> bool:
        return self.failure is None


class Client:
    """One keep-alive HTTP connection issuing explain requests in a closed loop."""

    def __init__(self, host: str, port: int, timeout_s: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._connection: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def send(self, path: str, body: bytes, token: Optional[str] = None) -> Outcome:
        """POST one request; never raises for transport or HTTP failures."""
        headers = {"Content-Type": "application/json"}
        if token is not None:
            headers["Authorization"] = f"Bearer {token}"
        stream = path.endswith("/stream")
        start = time.perf_counter()
        try:
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout_s)
            self._connection.request("POST", path, body=body, headers=headers)
            response = self._connection.getresponse()
            if response.status != 200 or not stream:
                first = time.perf_counter()
                payload = response.read()
                end = time.perf_counter()
                outcome = Outcome(status=response.status, payload=payload,
                                  latency_s=end - start, first_event_s=first - start)
                if response.status != 200:
                    outcome.failure = "status"
                return outcome
            return self._read_stream(response, start)
        except ConnectionRefusedError:
            failure = "refused"
        except (socket.timeout, TimeoutError):
            failure = "timeout"
        except (OSError, http.client.HTTPException, ValueError):
            failure = "connection"
        self.close()
        return Outcome(failure=failure, latency_s=time.perf_counter() - start)

    def _read_stream(self, response, start: float) -> Outcome:
        first = None
        last = b""
        while True:
            line = response.readline()
            if not line:
                break
            if first is None:
                first = time.perf_counter()
            last = line
        response.read()  # completes the response so the connection is reusable
        end = time.perf_counter()
        outcome = Outcome(status=200, payload=last.strip(), latency_s=end - start,
                          first_event_s=(first or end) - start)
        try:
            final = json.loads(outcome.payload)
        except ValueError:
            final = {}
        if final.get("event") != "report":
            outcome.failure = "error_event"
        return outcome


def failure_counts(outcomes: Iterable[Outcome]) -> Counter:
    """Failed outcomes by kind."""
    return Counter(outcome.failure for outcome in outcomes if outcome.failure)


def failure_summary(outcomes: List[Outcome]) -> str:
    counts = failure_counts(outcomes)
    failed = sum(counts.values())
    share = failed / len(outcomes) if outcomes else 0.0
    kinds = ", ".join(f"{kind} {counts.get(kind, 0)}" for kind in FAILURE_KINDS)
    return f"failed_share {share:.4f} ({failed} of {len(outcomes)}: {kinds})"
