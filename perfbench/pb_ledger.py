"""The traced run's per-layer ledger: timing wrappers around layer entry points.

:meth:`Ledger.install` replaces public entry points of each layer (and the
HTTP front end's two private explain handlers, the request roots, since the
server has no public per-request hook) with wrappers that time every call.  Nothing in the program changes; the
wrappers live in the server process only after the benchmark asks for them.

Accounting rules:

* A name's busy time is the inclusive wall time of its calls.  Calls of the
  same *group* nested inside one another count once, in the outermost call
  (a many-to-one partition runs a frequency partition inside it; that time
  counts as many-to-one).
* A call with no wrapped caller on its thread is *top level*.  Its interval
  is attributed to the HTTP request it serves: on the event-loop thread by
  the asyncio task running the handler, on worker threads by the step
  object that the request's parse produced and that ``submit`` and
  ``ExplanationSession.explain`` receive.  The wait between ``submit``
  returning and the session starting is attributed as queue wait.
* A request's covered time is the union of its attributed intervals within
  the handler's span; the rest is unattributed (socket writes, thread hops).

Spans are kept in memory (per request: its top-level intervals) and written
out when the server exits.
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: ``report.timings`` keys -> phase metric names.
PHASES = {"interestingness": "core.phase1", "partitioning": "core.phase2",
          "contribution": "core.phase3", "skyline": "core.phase4",
          "visualization": "core.phase5"}


class _Request:
    __slots__ = ("path", "start", "end", "intervals", "stream")

    def __init__(self, path: str, stream: bool) -> None:
        self.path = path
        self.stream = stream
        self.start = _clock()
        self.end = self.start
        self.intervals: List[Tuple[str, float, float]] = []


def covered_time(intervals, start: float, end: float) -> float:
    """Length of the union of ``(name, lo, hi)`` intervals clipped to [start, end]."""
    total = 0.0
    current_lo = current_hi = None
    for _, lo, hi in sorted(intervals, key=lambda item: item[1]):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if current_hi is None or lo > current_hi:
            if current_hi is not None:
                total += current_hi - current_lo
            current_lo, current_hi = lo, hi
        else:
            current_hi = max(current_hi, hi)
    if current_hi is not None:
        total += current_hi - current_lo
    return total


class Ledger:
    """Aggregated busy times, call counts and request coverage of one process."""

    def __init__(self, max_requests: int = 20_000) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.busy: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.request_s = 0.0
        self.covered_s = 0.0
        self.requests = 0
        self._tasks: Dict[object, _Request] = {}
        self._steps: Dict[int, _Request] = {}
        self._submitted: Dict[int, float] = {}
        self._inflight = 0
        self._peak = 0
        self._finished: List[Dict] = []
        self._max_requests = max_requests
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ accounting
    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _loop_request(self, args) -> Optional[_Request]:
        try:
            task = asyncio.current_task()
        except RuntimeError:  # not on the event-loop thread
            return None
        return self._tasks.get(task)

    def _step_request(self, step) -> Optional[_Request]:
        return self._steps.get(id(step))

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def snapshot(self) -> Dict[str, object]:
        """Cumulative totals; the in-flight peak restarts from the current level."""
        with self._lock:
            peak, self._peak = self._peak, self._inflight
            return {"busy_s": dict(self.busy), "calls": dict(self.calls),
                    "counts": dict(self.counts), "request_s": self.request_s,
                    "covered_s": self.covered_s, "requests": self.requests,
                    "inflight_peak": peak}

    def write_spans(self, path: str) -> None:
        with self._lock:
            records = list(self._finished)
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    # -------------------------------------------------------------- wrapping
    def wrap(self, owner, attribute: str, name: str, *, group: Optional[str] = None,
             request_of: Optional[Callable] = None,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None,
             failed: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` with a timed wrapper.

        ``request_of(args)`` names the request a top-level call serves
        (default: the handler task on the loop thread); ``before(args,
        start)``, ``after(args, result, request)`` and ``failed(args)`` are
        hooks for counts and hand-offs between threads.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        request_of = request_of or self._loop_request
        ledger = self
        key = group or name

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = ledger._stack()
            if group is not None and group in stack:
                return original(*args, **kwargs)
            stack.append(key)
            start = _clock()
            request = None
            if before is not None:
                request = before(args, start)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                if failed is not None:
                    failed(args)
                raise
            finally:
                end = _clock()
                stack.pop()
                top = not stack
                if top and request is None:
                    request = request_of(args)
                with ledger._lock:
                    ledger.busy[name] += end - start
                    ledger.calls[name] += 1
                    if top and request is not None:
                        request.intervals.append((name, start, end))
            if after is not None:
                after(args, result, request)
            return result

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def wrap_handler(self, owner, attribute: str, path: str, stream: bool) -> None:
        """Make an async explain handler the root span of its request."""
        original = owner.__dict__[attribute]
        ledger = self

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            task = asyncio.current_task()
            request = _Request(path, stream)
            with ledger._lock:
                ledger._tasks[task] = request
            try:
                return await original(*args, **kwargs)
            finally:
                request.end = _clock()
                covered = covered_time(request.intervals, request.start, request.end)
                with ledger._lock:
                    ledger._tasks.pop(task, None)
                    ledger.request_s += request.end - request.start
                    ledger.covered_s += covered
                    ledger.requests += 1
                    if len(ledger._finished) < ledger._max_requests:
                        ledger._finished.append({
                            "path": request.path, "start": request.start,
                            "end": request.end, "covered": covered,
                            "spans": request.intervals})

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ---------------------------------------------------------------- layers
    def install(self) -> None:
        """Wrap every layer entry point the per-layer metrics are read from."""
        from repro.core import engine, partition
        from repro.core.contribution import ContributionCalculator
        from repro.dataframe.column import Column
        from repro.dataframe.frame import DataFrame
        from repro.operators.operations import Operation
        from repro.service.service import ExplanationService
        from repro.serving import http, protocol
        from repro.serving.auth import TokenAuthenticator
        from repro.session import cache, session, store
        from repro.storage.store import DatasetStore

        ledger = self

        # serving: request roots, auth, serialization
        self.wrap_handler(http.ExplanationServer, "_handle_explain", "/explain", False)
        self.wrap_handler(http.ExplanationServer, "_handle_stream", "/explain/stream", True)
        self.wrap(TokenAuthenticator, "authenticate", "serving.auth")
        self.wrap(http, "report_document", "serving.serialize", group="serialize")

        def serialized(args, result, request):
            request = request or ledger._loop_request(args)
            if request is not None:
                ledger.count("serving.response_bytes", len(result))
                if request.stream:
                    ledger.count("serving.stream_events")

        self.wrap(http, "dump_json", "serving.serialize", group="serialize", after=serialized)

        # protocol / operators: parse, SQL parse, step materialisation
        def parsed(args, result, request):
            request = request or ledger._loop_request(args)
            if request is not None:
                with ledger._lock:
                    ledger._steps[id(result.step)] = request

        self.wrap(http, "parse_explain_request", "protocol.parse", after=parsed)
        self.wrap(protocol, "parse_query", "operators.parse_query")
        for operation in _subclasses(Operation):
            if "apply" in operation.__dict__:
                self.wrap(operation, "apply", "operators.apply", group="apply")
        self.wrap(DatasetStore, "open", "storage.open")

        # service: admission (submit) and queue wait (submit -> session)
        def admitted(args, start):
            with ledger._lock:
                ledger._inflight += 1
                ledger._peak = max(ledger._peak, ledger._inflight)
            return ledger._step_request(args[2])

        def submitted(args, result, request):
            with ledger._lock:
                ledger._submitted[id(args[2])] = _clock()

        def left(args):
            with ledger._lock:
                ledger._inflight -= 1

        self.wrap(ExplanationService, "submit", "service.admission_wait",
                  before=admitted, after=submitted, failed=left)

        def session_started(args, start):
            step = args[1]
            with ledger._lock:
                request = ledger._steps.pop(id(step), None)
                queued = ledger._submitted.pop(id(step), None)
                if queued is not None:
                    ledger.busy["service.queue_wait"] += start - queued
                    ledger.calls["service.queue_wait"] += 1
                    if request is not None:
                        request.intervals.append(("service.queue_wait", queued, start))
            return request

        def session_done(args, result, request):
            left(args)

        self.wrap(session.ExplanationSession, "explain", "session.explain",
                  before=session_started, after=session_done, failed=left)

        # session / cache store
        self.wrap(cache.SessionCache, "adopt_step", "session.adopt_step")
        self.wrap(store.CacheStore, "put", "session.cache_put")
        self.wrap(store.CacheStore, "get", "session.cache_get")
        self.wrap(store, "measured_bytes", "session.measured_bytes")

        # core: engine, phases, partitioner families
        def explained(args, report, request):
            with ledger._lock:
                for phase, metric in PHASES.items():
                    ledger.busy[metric] += report.timings.get(phase, 0.0)
                ledger.counts["core.candidates"] += len(report.all_candidates)

        self.wrap(engine.FedexExplainer, "explain", "core.explain", after=explained)
        self.wrap(engine, "build_partitions", "core.partition.build",
                  after=lambda args, result, request: ledger.count("core.partitions", len(result)))
        for family, metric in ((partition.FrequencyPartitioner, "frequency"),
                               (partition.NumericBinningPartitioner, "binning"),
                               (partition.ManyToOnePartitioner, "many_to_one")):
            self.wrap(family, "partition", f"core.partition.{metric}", group="partition")
        self.wrap(partition.RowPartition, "validate", "core.partition.validate")
        self.wrap(partition.ManyToOnePartitioner, "find_companions",
                  "core.partition.find_companions")
        self.wrap(ContributionCalculator, "partition_contributions", "core.grid_pair")

        # dataframe kernels
        self.wrap(DataFrame, "sample", "dataframe.sample")
        self.wrap(Column, "factorize", "dataframe.factorize")
        self.wrap(Column, "sorted_order", "dataframe.sorted_order")


def _subclasses(cls) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found
