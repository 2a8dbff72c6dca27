"""The asyncio HTTP front end: routes, auth, errors, keep-alive, streaming,
request framing, and the telemetry routes (``/metrics``, ``/traces``)."""

from __future__ import annotations

import http.client
import json
import logging
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from prometheus_text import validate_prometheus_text
from repro import (
    Comparison,
    ExplanationService,
    ExploratoryStep,
    FedexConfig,
    Filter,
    ServiceConfig,
)
from repro.obs.trace import begin_request, end_request, tracing
from repro.serving import (
    ExplanationServer,
    TokenAuthenticator,
    dump_json,
    report_document,
)
from repro.serving.http import MAX_TRACE_LIMIT, PROMETHEUS_CONTENT_TYPE

QUERY = "SELECT * FROM spotify WHERE popularity > 65"


@pytest.fixture
def served(spotify_small):
    """A service + server over one small frame, with two tenants."""
    service = ExplanationService(
        config=FedexConfig(seed=0),
        service_config=ServiceConfig(workers=2),
    )
    auth = TokenAuthenticator({"tok-alice": "alice", "tok-bob": "bob"})
    server = ExplanationServer(service, auth=auth,
                               frames={"spotify": spotify_small}).start()
    yield server, service
    server.close()
    service.close()


def _request(server, path, body=None, token="tok-alice", headers=()):
    request = urllib.request.Request(server.url + path, data=body)
    if token is not None:
        request.add_header("Authorization", f"Bearer {token}")
    for key, value in headers:
        request.add_header(key, value)
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def _explain_body(query=QUERY, **extra):
    return json.dumps({"query": query, **extra}).encode("utf-8")


def _stream(server, body, token="tok-alice"):
    """POST /explain/stream and decode the NDJSON chunks into events."""
    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=120)
    headers = {"Authorization": f"Bearer {token}"} if token else {}
    connection.request("POST", "/explain/stream", body=body, headers=headers)
    response = connection.getresponse()
    try:
        raw = response.read()
        return response, [json.loads(line)
                          for line in raw.decode().strip().split("\n") if line]
    finally:
        connection.close()


def _finish_trace(names=("explain", "phase3.contribution")):
    """Finish one owned trace; it fans out to every registered consumer."""
    with tracing(True):
        tracer, token = begin_request()
        with tracer.span(names[0]):
            for name in names[1:]:
                with tracer.span(name):
                    pass
        return end_request(tracer, token)


def _exchange(port, payload, shutdown_write=False, timeout=5.0):
    """Send raw bytes and read until the server closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(payload)
        if shutdown_write:
            sock.shutdown(socket.SHUT_WR)
        received = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(received)
            received.append(chunk)


class TestOpsRoutes:
    def test_healthz(self, served):
        server, _ = served
        status, _, body = _request(server, "/healthz", token=None)
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["inflight"] == 0
        assert payload["workers"] == 2

    def test_metrics_is_valid_prometheus(self, served):
        server, _ = served
        _request(server, "/explain", body=_explain_body())
        status, headers, body = _request(server, "/metrics", token=None)
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        families = validate_prometheus_text(body.decode())
        assert families["repro_service_requests_total"] == "counter"
        assert "repro_service_inflight" in families

    def test_unknown_route_404_and_wrong_method_405(self, served):
        server, _ = served
        status, _, _ = _request(server, "/nope", token=None)
        assert status == 404
        status, _, _ = _request(server, "/explain", token=None)  # GET
        assert status == 405


class TestTelemetryRoutes:
    def test_metrics_prometheus_text(self, served):
        server, _ = served
        status, headers, body = _request(server, "/metrics", token=None)
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        families = validate_prometheus_text(body.decode("utf-8"))
        assert families["repro_service_requests_total"] == "counter"
        assert families["repro_service_request_seconds"] == "histogram"

    def test_traces_most_recent_first_with_critical_path(self, served):
        server, _ = served
        _finish_trace(("first",))
        _finish_trace(("second", "child"))
        status, _, body = _request(server, "/traces", token=None)
        assert status == 200
        payload = json.loads(body)
        assert payload["count"] == 2
        assert [t["root"] for t in payload["traces"]] == ["second", "first"]
        steps = [step["name"] for step in payload["traces"][0]["critical_path"]]
        assert steps == ["second", "child"]
        assert payload["traces"][0]["span_count"] == 2
        assert "spans" not in payload["traces"][0]

    def test_traces_limit_and_spans_params(self, served):
        server, _ = served
        for _ in range(3):
            _finish_trace()
        _, _, body = _request(server, "/traces?limit=1&spans=1", token=None)
        payload = json.loads(body)
        assert payload["count"] == 1
        (document,) = payload["traces"]
        assert document["span_count"] == len(document["spans"]) == 2

    def test_traces_limit_clamps_negative_to_zero(self, served):
        server, _ = served
        for _ in range(8):
            _finish_trace()
        _, _, body = _request(server, "/traces?limit=-5", token=None)
        # A negative limit means "nothing", never Python's "drop the last
        # five" slice semantics.
        assert json.loads(body) == {"count": 0, "traces": []}

    def test_traces_limit_clamped_to_cap(self, served):
        server, _ = served
        _finish_trace()
        status, _, body = _request(
            server, f"/traces?limit={MAX_TRACE_LIMIT * 1000}", token=None)
        assert status == 200
        assert json.loads(body)["count"] == 1  # clamped, served, no error

    @pytest.mark.parametrize("query", ["limit=abc", "spans=xyz", "limit=1.5"])
    def test_non_numeric_params_are_400(self, served, query):
        server, _ = served
        _finish_trace()
        status, _, body = _request(server, "/traces?" + query, token=None)
        assert status == 400
        assert "must be an integer" in json.loads(body)["error"]
        # The server keeps serving after the rejected request.
        _, _, body = _request(server, "/traces", token=None)
        assert json.loads(body)["count"] == 1

    def test_broken_metrics_callback_is_a_500_not_a_crash(self, served,
                                                         monkeypatch):
        server, service = served

        def boom():
            raise RuntimeError("registry on fire")

        monkeypatch.setattr(service, "render_metrics", boom)
        status, _, body = _request(server, "/metrics", token=None)
        assert status == 500
        assert json.loads(body)["type"] == "RuntimeError"
        # The process keeps serving after a failed scrape.
        status, _, _ = _request(server, "/healthz", token=None)
        assert status == 200

    def test_traces_wrong_method_is_405(self, served):
        server, _ = served
        status, _, _ = _request(server, "/traces", body=b"{}", token=None)
        assert status == 405


class TestLifecycle:
    def test_ephemeral_port_and_url(self, served):
        server, _ = served
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"

    def test_start_is_idempotent(self, served):
        server, _ = served
        assert server.start() is server
        _finish_trace()
        _, _, body = _request(server, "/traces", token=None)
        assert json.loads(body)["count"] == 1

    def test_close_is_idempotent_and_releases_the_socket(self):
        service = ExplanationService()
        server = ExplanationServer(service).start()
        port = server.port
        server.close()
        server.close()
        service.close()
        with pytest.raises(OSError):
            urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz",
                                   timeout=0.5)
        # The closed server's ring no longer receives traces.
        _finish_trace()
        assert len(server._ring) == 0

    def test_concurrent_scrapes(self, served):
        server, _ = served
        errors = []

        def scrape():
            try:
                status, _, body = _request(server, "/metrics", token=None)
                assert status == 200 and b"repro_service_inflight" in body
            except Exception as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        threads = [threading.Thread(target=scrape) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestFraming:
    """Requests whose body the server cannot frame are refused cleanly."""

    HEAD = ("POST /explain HTTP/1.1\r\nHost: test\r\n"
            "Authorization: Bearer tok-alice\r\n")

    def test_negative_content_length_is_400(self, served):
        server, _ = served
        response = _exchange(
            server.port, (self.HEAD + "Content-Length: -5\r\n\r\n").encode())
        assert response.startswith(b"HTTP/1.1 400 ")
        assert response.count(b"HTTP/1.1 ") == 1
        assert b"invalid Content-Length" in response

    def test_short_body_closes_quietly(self, served, caplog):
        server, _ = served
        caplog.set_level(logging.ERROR, logger="asyncio")
        response = _exchange(
            server.port,
            (self.HEAD + "Content-Length: 50\r\n\r\n").encode() + b"{}",
            shutdown_write=True)
        assert response == b""
        # A later request round-trips through the loop after the short
        # read's handler has finished, so any error it logged is in.
        status, _, _ = _request(server, "/healthz", token=None)
        assert status == 200
        assert [record.getMessage() for record in caplog.records
                if record.name == "asyncio"] == []

    def test_stalled_body_is_dropped_after_keep_alive(self, spotify_small):
        service = ExplanationService()
        server = ExplanationServer(service, keep_alive_s=0.3).start()
        try:
            started = time.monotonic()
            response = _exchange(
                server.port,
                b"POST /explain HTTP/1.1\r\nContent-Length: 50\r\n\r\n{}",
                timeout=5.0)
            assert response == b""
            assert time.monotonic() - started < 5.0
        finally:
            server.close()
            service.close()

    def test_chunked_request_is_501_and_closes(self, served):
        server, _ = served
        # The chunk's data is itself a complete request: it must never run.
        inner = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
        payload = ((self.HEAD + "Transfer-Encoding: chunked\r\n\r\n").encode()
                   + f"{len(inner):x}\r\n".encode() + inner + b"\r\n0\r\n\r\n")
        response = _exchange(server.port, payload)
        assert response.startswith(b"HTTP/1.1 501 Not Implemented\r\n")
        assert response.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close" in response


class TestExplain:
    def test_explain_returns_full_report(self, served, spotify_small):
        server, service = served
        status, headers, body = _request(server, "/explain",
                                         body=_explain_body())
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        document = json.loads(body)
        assert document["explanations"]
        assert document["skyline_keys"]
        # The served document is exactly the service's own report.
        step = ExploratoryStep([spotify_small],
                               Filter(Comparison("popularity", ">", 65)))
        report = service.explain("alice", step)
        assert body == dump_json(report_document(report))

    def test_tenant_identity_comes_from_the_token(self, served):
        server, service = served
        _request(server, "/explain", body=_explain_body(), token="tok-bob")
        assert service.metrics.snapshot("bob")["requests"] == 1
        assert service.metrics.snapshot("alice")["requests"] == 0

    def test_config_override_shapes_the_result(self, served):
        server, _ = served
        _, _, body = _request(
            server, "/explain",
            body=_explain_body(config={"top_k_explanations": 1}))
        assert len(json.loads(body)["explanations"]) == 1

    def test_malformed_config_override_is_400(self, served):
        """Refused by FedexConfig, not a TypeError from inside the engine."""
        server, service = served
        status, _, body = _request(
            server, "/explain",
            body=_explain_body(config={"top_k_explanations": "x"}))
        assert status == 400
        assert "top_k_explanations" in json.loads(body)["error"]
        assert service.stats("alice")["inflight"] == 0

    @pytest.mark.parametrize("token,expected", [
        (None, 401), ("wrong", 401)])
    def test_auth_failures_are_401(self, served, token, expected):
        server, _ = served
        status, headers, _ = _request(server, "/explain",
                                      body=_explain_body(), token=token)
        assert status == expected
        assert headers.get("WWW-Authenticate") == "Bearer"

    def test_bad_json_is_400(self, served):
        server, _ = served
        status, _, body = _request(server, "/explain", body=b"{nope")
        assert status == 400
        assert "JSON" in json.loads(body)["error"]

    def test_unknown_dataset_is_404(self, served):
        server, _ = served
        status, _, _ = _request(
            server, "/explain",
            body=_explain_body(query="SELECT * FROM missing WHERE x > 1"))
        assert status == 404

    @pytest.mark.parametrize("query", [
        "SELECT * FROM spotify WHERE no_such_column > 3",
        "SELECT no_such_column, AVG(loudness) FROM spotify GROUP BY no_such_column",
    ])
    def test_query_that_cannot_be_applied_is_400(self, served, query):
        """A query that parses but names an unknown column fails when its
        step is materialised, which happens before the request is queued."""
        server, service = served
        status, _, body = _request(server, "/explain",
                                   body=_explain_body(query=query))
        assert status == 400
        assert json.loads(body)["type"] == "ColumnError"
        assert service.stats("alice")["inflight"] == 0

    def test_oversized_declared_body_is_413(self, served):
        server, _ = served
        status, _, _ = _request(server, "/explain", body=b"x" * (300 * 1024))
        assert status == 413

    def test_keep_alive_serves_many_requests_on_one_connection(self, served):
        server, _ = served
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=60)
        try:
            bodies = []
            for _ in range(3):
                connection.request(
                    "POST", "/explain", body=_explain_body(),
                    headers={"Authorization": "Bearer tok-alice"})
                response = connection.getresponse()
                assert response.status == 200
                assert response.getheader("Connection") == "keep-alive"
                bodies.append(response.read())
            assert bodies[0] == bodies[1] == bodies[2]
        finally:
            connection.close()


class TestStreaming:
    def test_stream_is_chunked_ndjson_with_one_final_report(self, served):
        server, _ = served
        response, events = _stream(server, _explain_body())
        assert response.status == 200
        assert response.getheader("Transfer-Encoding") == "chunked"
        assert response.getheader("Content-Type") == "application/x-ndjson"
        kinds = [event["event"] for event in events]
        assert kinds[-1] == "report"
        assert kinds.count("report") == 1
        assert set(kinds[:-1]) <= {"progress"}

    def test_cold_stream_emits_progress_per_pair_in_order(self, served):
        server, _ = served
        # A query this tenant pool has not answered: progress events flow
        # while later (partition, attribute) pairs still compute.
        body = _explain_body(query="SELECT * FROM spotify WHERE energy < 0.4")
        _, events = _stream(server, body)
        progress = [event for event in events if event["event"] == "progress"]
        assert progress, "cold request must stream partial results"
        pairs = [event["pair"] for event in progress]
        assert pairs == sorted(pairs)
        assert progress[-1]["pairs"] >= progress[-1]["pair"]
        assert all(event["phase"] == "contribution" for event in progress)

    def test_streamed_report_is_bit_identical_to_plain_endpoint(self, served):
        server, _ = served
        body = _explain_body(query="SELECT * FROM spotify WHERE loudness < -9")
        _, events = _stream(server, body)
        final = events[-1]
        assert final["event"] == "report"
        _, _, plain = _request(server, "/explain", body=body)
        assert dump_json(final["report"]) == plain

    def test_stream_auth_failure_is_a_plain_401(self, served):
        server, _ = served
        response, events = _stream(server, _explain_body(), token=None)
        assert response.status == 401

    @pytest.mark.parametrize("query", [
        "SELECT * FROM spotify WHERE no_such_column > 3",
        "SELECT no_such_column, AVG(loudness) FROM spotify GROUP BY no_such_column",
    ])
    def test_query_that_cannot_be_applied_is_a_plain_400(self, served, query):
        """Not a 200 head followed by an in-band error: the step fails to
        materialise before any chunk is written."""
        server, _ = served
        response, events = _stream(server, _explain_body(query=query))
        assert response.status == 400
        assert response.getheader("Transfer-Encoding") is None
        assert events == [{"error": events[0]["error"], "type": "ColumnError"}]

    def test_mid_stream_failure_reports_an_error_event(self, served):
        server, _ = served
        body = _explain_body(
            config={"target_columns": ["no_such_column"]})
        response, events = _stream(server, body)
        assert response.status == 200  # head already sent; error is in-band
        assert events[-1]["event"] == "error"
        assert events[-1]["status"] == 400


class TestWithoutAuth:
    def test_unauthenticated_server_uses_default_tenant(self, spotify_small):
        service = ExplanationService(config=FedexConfig(seed=0))
        server = ExplanationServer(service, frames={"spotify": spotify_small},
                                   default_tenant="everyone").start()
        try:
            status, _, _ = _request(server, "/explain", body=_explain_body(),
                                    token=None)
            assert status == 200
            assert service.metrics.snapshot("everyone")["requests"] == 1
        finally:
            server.close()
            service.close()

    def test_dataset_store_resolution(self, tmp_path, spotify_small):
        from repro import DatasetStore

        store = DatasetStore(tmp_path / "store")
        store.put("songs", spotify_small)
        service = ExplanationService(config=FedexConfig(seed=0),
                                     dataset_store=store)
        server = ExplanationServer(service).start()
        try:
            status, _, body = _request(
                server, "/explain", token=None,
                body=_explain_body(query="SELECT * FROM songs WHERE popularity > 65"))
            assert status == 200
            assert json.loads(body)["explanations"]
        finally:
            server.close()
            service.close()

    def test_overload_is_429(self, spotify_small):
        import threading

        service = ExplanationService(
            service_config=ServiceConfig(workers=1, max_inflight_per_tenant=1,
                                         admission="reject"))
        server = ExplanationServer(service,
                                   frames={"spotify": spotify_small}).start()
        release = threading.Event()
        started = threading.Event()
        session = service.session("anonymous")

        def slow_explain(step, measure=None, config=None, progress=None,
                         prepared=None):
            started.set()
            release.wait(timeout=20)
            raise RuntimeError("never a real report")

        session.explain = slow_explain
        try:
            def first():
                _request(server, "/explain", body=_explain_body(), token=None)

            thread = threading.Thread(target=first)
            thread.start()
            assert started.wait(timeout=20)
            status, _, body = _request(server, "/explain",
                                       body=_explain_body(), token=None)
            assert status == 429
            assert "in-flight bound" in json.loads(body)["error"]
        finally:
            release.set()
            thread.join(timeout=20)
            server.close()
            service.close()
