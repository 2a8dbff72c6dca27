"""A stdlib-only asyncio HTTP front end over :class:`ExplanationService`.

One :class:`ExplanationServer` exposes one service over HTTP/1.1; it is
the process's only HTTP surface, telemetry routes included:

* ``GET /healthz`` — liveness JSON; always 200, with a ``status`` field of
  ``ok`` / ``draining`` so load balancers can stop routing before the
  socket disappears.
* ``GET /metrics`` — the service's merged Prometheus document
  (:meth:`ExplanationService.render_metrics`, which reuses the
  :mod:`repro.obs` registries).
* ``GET /traces`` — the most recent finished traces of this process,
  newest first, each with its critical path (``?limit=N``, default 16,
  clamped to [0, 1024]; ``?spans=1`` inlines the span dicts).  A 64-trace
  :class:`~repro.obs.export.TraceRing` is registered as a trace consumer
  while the server runs; only traced requests (``REPRO_TRACE``) feed it.
  Like ``/healthz`` and ``/metrics`` it needs no token: spans carry
  operation kinds, counts and lock-file names, never tenants, query text
  or data values.
* ``POST /explain`` — a validated query (see :mod:`repro.serving.protocol`)
  explained to completion; the full report as one JSON document.
* ``POST /explain/stream`` — the same request, answered as chunked NDJSON:
  one ``progress`` event per finished (partition, attribute) pair *while
  later shards are still computing*, then exactly one ``report`` (or
  ``error``) event.  The final report bytes are produced by the same
  serialiser as ``/explain``, so the two endpoints are bit-identical.

The event loop runs on a dedicated thread; ``start()`` returns once the
socket is bound.  Explanations never run on the loop: ``submit`` is
dispatched to a thread (its admission gate may block) and the returned
``concurrent.futures`` future is awaited via ``asyncio.wrap_future``.
Progress callbacks hop threads through ``loop.call_soon_threadsafe`` into
an ``asyncio.Queue``; because the worker thread emits every progress event
before resolving the future, FIFO scheduling guarantees the stream never
drops a trailing event.

Request framing is strict: a ``Content-Length`` must be plain decimal
digits (else ``400``), a ``Transfer-Encoding`` is refused with ``501``
(no transfer coding is decoded), and a body that stalls past
``keep_alive_s`` or ends short closes the connection unanswered.

Graceful drain (:meth:`close`): the listener keeps accepting so new
explain requests get an honest ``503`` (``/healthz`` reports ``draining``),
in-flight requests — including mid-stream responses — run to completion,
every installed span exporter is flushed, and only then does the loop
stop.  ``close`` is idempotent and safe under concurrent callers: one
drains, the rest wait.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from typing import Callable, Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qs

from ..errors import (
    ReproError,
    ServerDrainingError,
    ServiceError,
    ServiceOverloadError,
    ServingError,
    ServingRequestError,
)
from ..obs.analyze import critical_path
from ..obs.export import TraceRing, flush_span_exporters
from ..obs.trace import add_trace_consumer, remove_trace_consumer
from .auth import TokenAuthenticator
from .protocol import parse_explain_request, report_document, dump_json

__all__ = ["ExplanationServer"]

#: Request heads larger than this are refused (431).
MAX_HEAD_BYTES = 32 * 1024

#: Bodies larger than this are refused before being read (413); the
#: protocol layer enforces its own tighter 400-level limit after.
MAX_BODY_BYTES = 256 * 1024

#: An idle keep-alive connection, or a request body that stops arriving,
#: is dropped after this many seconds.
DEFAULT_KEEP_ALIVE_S = 30.0

#: Upper bound on ``/traces?limit=``: the ring is small, but the response
#: document must stay bounded no matter what a client asks for.
MAX_TRACE_LIMIT = 1_024

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_REASONS = {
    200: "OK", 400: "Bad Request", 401: "Unauthorized", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 501: "Not Implemented",
    503: "Service Unavailable",
}


def _status_of(error: BaseException) -> int:
    """Map an exception to the HTTP status the client should see."""
    status = getattr(error, "http_status", None)
    if isinstance(status, int):
        return status
    if isinstance(error, ServiceOverloadError):
        return 429
    if isinstance(error, ServiceError):
        # A closed service behind a live listener: tell callers to retry
        # elsewhere rather than blaming the request.
        return 503
    if isinstance(error, ReproError):
        return 400
    return 500


def _error_document(error: BaseException) -> Dict[str, object]:
    return {"error": str(error) or type(error).__name__,
            "type": type(error).__name__}


class ExplanationServer:
    """Serves one :class:`ExplanationService` over HTTP on a loop thread.

    Parameters
    ----------
    service:
        The :class:`~repro.service.service.ExplanationService` to front.
    auth:
        Optional :class:`~repro.serving.auth.TokenAuthenticator`; when
        given, the explain endpoints require ``Authorization: Bearer`` and
        requests run as the token's tenant.  Without one, every request
        runs as ``default_tenant``.
    frames:
        Optional ``name -> DataFrame`` mapping consulted before the
        service's dataset store when resolving table names.
    resolver:
        Optional ``name -> DataFrame`` callable replacing the default
        resolution (frames mapping, then ``service.dataset_store.open``).
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    """

    def __init__(self, service, *, auth: Optional[TokenAuthenticator] = None,
                 frames: Optional[Mapping[str, object]] = None,
                 resolver: Optional[Callable[[str], object]] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 default_tenant: str = "anonymous",
                 keep_alive_s: float = DEFAULT_KEEP_ALIVE_S) -> None:
        self.service = service
        self.auth = auth
        self.host = host
        self.default_tenant = default_tenant
        self.keep_alive_s = float(keep_alive_s)
        self._frames = dict(frames) if frames is not None else None
        self._resolver = resolver or self._default_resolver
        self._requested_port = int(port)
        self._bound_port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._draining = False
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._inflight_idle = threading.Condition(self._inflight_lock)
        self._close_lock = threading.Lock()
        self._close_started = False
        self._closed_event = threading.Event()
        self._ring = TraceRing()
        self._ring_key = f"serving-traces-{id(self)}"

    # ----------------------------------------------------------------- lifecycle
    def start(self) -> "ExplanationServer":
        """Bind the socket and start serving; returns once ready."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serving", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join()
            self._thread = None
            self._startup_error = None
            raise error
        add_trace_consumer(self._ring_key, self._ring.add)
        return self

    @property
    def port(self) -> int:
        if self._bound_port is None:
            raise ServingError("the server has not been started")
        return self._bound_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self, timeout_s: float = 30.0) -> None:
        """Drain gracefully, then stop the loop.  Idempotent and concurrent-safe.

        The listener stays open through the drain so new explain requests
        receive ``503`` (and ``/healthz`` reports ``draining``); requests
        already admitted — including streams mid-response — finish
        normally, every installed span exporter is flushed, and only then
        is the loop stopped and the ``/traces`` ring unregistered.  A
        second (or concurrent) caller waits for the first drain to
        complete instead of racing it.
        """
        with self._close_lock:
            already = self._close_started
            self._close_started = True
        # Atomic with respect to _admit's check-and-increment: a request
        # either entered before this flag flipped (and is waited on below)
        # or it observes draining and gets a 503 — never neither.
        with self._inflight_lock:
            self._draining = True
        if already:
            self._closed_event.wait(timeout_s)
            return
        try:
            if self._thread is None:
                return
            deadline = timeout_s
            with self._inflight_idle:
                self._inflight_idle.wait_for(
                    lambda: self._inflight == 0, timeout=deadline)
            # Every admitted request has answered; exported spans must land
            # before the process that holds the queue goes away.
            flush_span_exporters()
            loop = self._loop
            if loop is not None and not loop.is_closed():
                loop.call_soon_threadsafe(self._begin_shutdown)
            self._thread.join(timeout=10.0)
            remove_trace_consumer(self._ring_key)
        finally:
            self._closed_event.set()

    def __enter__(self) -> "ExplanationServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ---------------------------------------------------------------- loop thread
    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(asyncio.start_server(
                self._handle_client, self.host, self._requested_port,
                limit=MAX_HEAD_BYTES))
        except BaseException as error:  # bind failure → surface in start()
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self._server = server
        self._bound_port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            try:
                server.close()
                loop.run_until_complete(server.wait_closed())
                pending = [task for task in asyncio.all_tasks(loop)
                           if not task.done()]
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True))
            finally:
                loop.close()

    def _begin_shutdown(self) -> None:
        # Runs on the loop: stop accepting, then stop the loop itself.  The
        # run_forever() epilogue cancels lingering keep-alive handlers.
        if self._server is not None:
            self._server.close()
        if self._loop is not None:
            self._loop.stop()

    # ------------------------------------------------------------- HTTP plumbing
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"),
                        timeout=self.keep_alive_s)
                except (asyncio.IncompleteReadError, ConnectionError,
                        asyncio.TimeoutError):
                    break
                except asyncio.LimitOverrunError:
                    await self._respond_json(
                        writer, 431, _error_document(
                            ServingRequestError("request head too large")),
                        keep_alive=False)
                    break
                try:
                    method, target, headers = _parse_head(head)
                    length = _body_length(headers)
                except ServingRequestError as error:
                    await self._respond_json(
                        writer, _status_of(error), _error_document(error),
                        keep_alive=False)
                    break
                body = b""
                if length:
                    try:
                        async with asyncio.timeout(self.keep_alive_s):
                            body = await reader.readexactly(length)
                    except (asyncio.IncompleteReadError, TimeoutError):
                        break  # the body ended short or stalled: no request
                keep_alive = headers.get("connection", "").lower() != "close"
                keep_alive = await self._dispatch(
                    writer, method, target, headers, body, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                # close() cancels lingering handlers, which can land here.
                pass

    async def _dispatch(self, writer, method: str, target: str,
                        headers: Dict[str, str], body: bytes,
                        keep_alive: bool) -> bool:
        path, _, query = target.partition("?")
        try:
            if path == "/healthz" and method == "GET":
                await self._respond_json(writer, 200, self._health_document(),
                                         keep_alive=keep_alive)
            elif path == "/metrics" and method == "GET":
                text = self.service.render_metrics().encode("utf-8")
                await self._respond(writer, 200, text,
                                    content_type=PROMETHEUS_CONTENT_TYPE,
                                    keep_alive=keep_alive)
            elif path == "/traces" and method == "GET":
                await self._respond_json(writer, 200,
                                         self._traces_document(query),
                                         keep_alive=keep_alive)
            elif path == "/explain" and method == "POST":
                await self._handle_explain(writer, headers, body, keep_alive)
            elif path == "/explain/stream" and method == "POST":
                keep_alive = await self._handle_stream(
                    writer, headers, body, keep_alive)
            elif path in ("/healthz", "/metrics", "/traces", "/explain",
                          "/explain/stream"):
                await self._respond_json(
                    writer, 405, {"error": f"method {method} not allowed"},
                    keep_alive=keep_alive)
            else:
                await self._respond_json(
                    writer, 404, {"error": f"no such route: {path}"},
                    keep_alive=keep_alive)
        except (ConnectionError, asyncio.CancelledError):
            raise
        except BaseException as error:
            status = _status_of(error)
            extra = ()
            if status == 401:
                extra = (("WWW-Authenticate", "Bearer"),)
            await self._respond_json(writer, status, _error_document(error),
                                     keep_alive=keep_alive,
                                     extra_headers=extra)
        return keep_alive

    # ------------------------------------------------------------------- routes
    def _health_document(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "status": "draining" if self._draining else "ok",
            "inflight": self._inflight,
        }
        try:
            document.update(self.service._health())
            if self._draining:
                document["status"] = "draining"
        except Exception:
            pass
        return document

    def _traces_document(self, query: str) -> Dict[str, object]:
        params = parse_qs(query)
        limit = _int_param(params, "limit", default=16, cap=MAX_TRACE_LIMIT)
        with_spans = _int_param(params, "spans", default=0, cap=1) > 0
        traces = self._ring.traces()[:limit]
        return {"count": len(traces),
                "traces": [_trace_document(trace, with_spans)
                           for trace in traces]}

    def _admit(self, headers: Dict[str, str]) -> str:
        """Auth + drain checks shared by both explain routes.

        Authenticates, then atomically checks the drain flag and counts
        the request in-flight (so :meth:`close` either waits for it or it
        sees a 503 — never neither).  Runs before any response byte is
        written, so failures map to proper status codes even for the
        stream route.  On success the caller owes a ``_leave_request``.
        """
        if self.auth is not None:
            tenant = self.auth.authenticate(headers.get("authorization"))
        else:
            tenant = self.default_tenant
        with self._inflight_lock:
            if self._draining:
                raise ServerDrainingError(
                    "the server is draining and accepts no new explanations")
            self._inflight += 1
        return tenant

    async def _submit(self, tenant: str, body: bytes, progress=None):
        """Parse and submit one request without ever blocking the loop."""
        request = parse_explain_request(body, self._resolver,
                                        self.service.config)
        loop = asyncio.get_running_loop()
        # submit() may block on the tenant's admission gate — keep that off
        # the loop.  The inner future then resolves on a service worker.
        submit = functools.partial(
            self.service.submit, tenant, request.step,
            measure=request.measure, config=request.config,
            progress=progress)
        future = await loop.run_in_executor(None, submit)
        return asyncio.wrap_future(future, loop=loop)

    async def _handle_explain(self, writer, headers: Dict[str, str],
                              body: bytes, keep_alive: bool) -> None:
        tenant = self._admit(headers)
        try:
            wrapped = await self._submit(tenant, body)
            report = await wrapped
            payload = dump_json(report_document(report))
            await self._respond(writer, 200, payload, keep_alive=keep_alive)
        finally:
            self._leave_request()

    async def _handle_stream(self, writer, headers: Dict[str, str],
                             body: bytes, keep_alive: bool) -> bool:
        tenant = self._admit(headers)
        try:
            loop = asyncio.get_running_loop()
            queue: "asyncio.Queue[Dict]" = asyncio.Queue()

            def progress(event: Dict) -> None:
                # Worker thread → loop.  call_soon_threadsafe is FIFO, and
                # the worker emits every event before resolving the future,
                # so the queue always holds all events by the time the
                # wrapped future is observed done.
                loop.call_soon_threadsafe(queue.put_nowait, event)

            wrapped = await self._submit(tenant, body, progress=progress)
            # Admission passed and the request is computing: from here on
            # failures are reported in-band as NDJSON error events.
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Transfer-Encoding: chunked\r\n"
                + (b"Connection: keep-alive\r\n" if keep_alive
                   else b"Connection: close\r\n")
                + b"\r\n")
            await writer.drain()
            task = asyncio.ensure_future(wrapped)
            try:
                while not task.done() or not queue.empty():
                    if not queue.empty():
                        event = queue.get_nowait()
                        await _send_chunk(writer, dump_json(
                            {"event": "progress", **event}))
                        continue
                    getter = asyncio.ensure_future(queue.get())
                    await asyncio.wait({getter, task},
                                       return_when=asyncio.FIRST_COMPLETED)
                    if getter.done() and not getter.cancelled():
                        await _send_chunk(writer, dump_json(
                            {"event": "progress", **getter.result()}))
                    else:
                        getter.cancel()
                try:
                    report = task.result()
                except BaseException as error:
                    await _send_chunk(writer, dump_json(
                        {"event": "error", "status": _status_of(error),
                         **_error_document(error)}))
                else:
                    await _send_chunk(writer, dump_json(
                        {"event": "report",
                         "report": report_document(report)}))
                writer.write(b"0\r\n\r\n")
                await writer.drain()
            except (ConnectionError, asyncio.CancelledError):
                # The client went away mid-stream; let the computation
                # finish (its report is cached for the next asker).
                task.cancel()
                return False
            return keep_alive
        finally:
            self._leave_request()

    # ---------------------------------------------------------------- internals
    def _default_resolver(self, name: str):
        # Table names are case-insensitive, like the SQL dialect that
        # carries them (the paper's workload writes "Bank"; registries
        # store "bank").
        if self._frames is not None:
            if name in self._frames:
                return self._frames[name]
            if name.lower() in self._frames:
                return self._frames[name.lower()]
        store = self.service.dataset_store
        if store is None:
            raise KeyError(name)
        try:
            return store.open(name)
        except Exception:
            if name.lower() != name:
                return store.open(name.lower())
            raise

    def _leave_request(self) -> None:
        with self._inflight_idle:
            self._inflight -= 1
            if self._inflight == 0:
                self._inflight_idle.notify_all()

    async def _respond_json(self, writer, status: int, document: Dict,
                            keep_alive: bool = True,
                            extra_headers: Tuple = ()) -> None:
        await self._respond(writer, status, dump_json(document),
                            keep_alive=keep_alive,
                            extra_headers=extra_headers)

    async def _respond(self, writer, status: int, body: bytes,
                       content_type: str = "application/json",
                       keep_alive: bool = True,
                       extra_headers: Tuple = ()) -> None:
        reason = _REASONS.get(status, "Error")
        lines = [f"HTTP/1.1 {status} {reason}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(body)}",
                 "Connection: " + ("keep-alive" if keep_alive else "close")]
        for key, value in extra_headers:
            lines.append(f"{key}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("draining" if self._draining
                 else "serving" if self._bound_port else "stopped")
        return f"ExplanationServer({self.host}:{self._bound_port}, {state})"


async def _send_chunk(writer, payload: bytes) -> None:
    """One NDJSON line as one HTTP chunk, flushed immediately."""
    line = payload + b"\n"
    writer.write(f"{len(line):X}\r\n".encode("ascii") + line + b"\r\n")
    await writer.drain()


def _refused(status: int, message: str) -> ServingRequestError:
    error = ServingRequestError(message)
    error.http_status = status
    return error


def _body_length(headers: Dict[str, str]) -> int:
    """The declared body length of a request the server can frame.

    Only plain decimal digits are a valid ``Content-Length`` (a ``-5``
    must not reach ``readexactly``).  A ``Transfer-Encoding`` is refused
    outright: no transfer coding is decoded here (RFC 9112 §6.1), so its
    body would otherwise be read as empty and its chunks parsed as the
    next request.
    """
    if "transfer-encoding" in headers:
        raise _refused(501, "Transfer-Encoding is not supported; "
                            "send a Content-Length body")
    raw = headers.get("content-length", "")
    if not raw:
        return 0
    if not (raw.isascii() and raw.isdigit()):
        raise _refused(400, f"invalid Content-Length: {raw!r}")
    length = int(raw)
    if length > MAX_BODY_BYTES:
        raise _refused(413, f"request body of {length} bytes refused")
    return length


def _int_param(query: Dict[str, List[str]], key: str, default: int,
               cap: int) -> int:
    """An integer query parameter clamped into ``[0, cap]``.

    A missing parameter uses ``default``; a present but non-numeric value
    is a 400 (a silent fallback would mask client typos), and out-of-range
    values are clamped — a negative limit must not slice from the wrong
    end, a huge one must not build an unbounded document.
    """
    raw = query.get(key)
    if raw is None:
        return max(0, min(default, cap))
    try:
        value = int(raw[0])
    except (TypeError, ValueError):
        raise ServingRequestError(
            f"query parameter {key!r} must be an integer, got {raw[0]!r}"
        ) from None
    return max(0, min(value, cap))


def _trace_document(trace, with_spans: bool) -> Dict[str, object]:
    path = critical_path(trace)
    document: Dict[str, object] = {
        "trace_id": trace.trace_id,
        "root": path[0].name if path else None,
        "wall_s": path[0].wall_s if path else 0.0,
        "span_count": len(trace.spans),
        "critical_path": [step.to_dict() for step in path],
    }
    if with_spans:
        document["spans"] = trace.to_dicts()
    return document


def _parse_head(head: bytes) -> Tuple[str, str, Dict[str, str]]:
    """Split a raw request head into (method, target, lowercased headers)."""
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:
        raise ServingRequestError("undecodable request head") from None
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ServingRequestError(f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ServingRequestError(f"malformed header line: {line!r}")
        headers[key.strip().lower()] = value.strip()
    return method.upper(), target, headers
