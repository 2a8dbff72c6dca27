"""Graceful drain: in-flight work completes, new work is shed, close is
idempotent under concurrent callers, and installed span exporters are
flushed."""

from __future__ import annotations

import asyncio
import http.client
import json
import logging
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import ExplanationService, ServiceConfig
from repro.obs.export import (
    SpanExporter,
    install_span_exporter,
    uninstall_span_exporter,
)
from repro.serving import ExplanationServer


class _FakeReport:
    """The minimal surface report_document() reads."""

    explanations = ()
    selected_columns = ()
    interestingness_scores = {}
    all_candidates = ()
    timings = {}

    def skyline_keys(self):
        return []


@pytest.fixture
def slow_served(spotify_small):
    """A server whose (single) tenant session blocks until released."""
    service = ExplanationService(service_config=ServiceConfig(workers=2))
    started = threading.Event()
    release = threading.Event()
    session = service.session("anonymous")

    def slow_explain(step, measure=None, config=None, progress=None,
                     prepared=None):
        if progress is not None:
            progress({"phase": "contribution", "pair": 1, "pairs": 1})
        started.set()
        release.wait(timeout=30)
        return _FakeReport()

    session.explain = slow_explain
    server = ExplanationServer(service,
                               frames={"spotify": spotify_small}).start()
    yield server, service, started, release
    release.set()
    server.close()
    service.close()


BODY = json.dumps({"query": "SELECT * FROM spotify WHERE popularity > 65"}).encode()


def _post(server, path="/explain", timeout=30):
    request = urllib.request.Request(server.url + path, data=BODY)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


class TestDrain:
    def test_inflight_completes_while_new_requests_get_503(self, slow_served):
        server, service, started, release = slow_served
        outcome = {}

        def inflight():
            outcome["response"] = _post(server)

        worker = threading.Thread(target=inflight)
        worker.start()
        assert started.wait(timeout=20)

        closer = threading.Thread(target=server.close)
        closer.start()
        # The drain flag flips synchronously at the start of close().
        deadline_passed = False
        for _ in range(200):
            with urllib.request.urlopen(server.url + "/healthz",
                                        timeout=5) as response:
                if json.loads(response.read())["status"] == "draining":
                    deadline_passed = True
                    break
        assert deadline_passed

        # New explanation requests are shed with an honest 503 while the
        # listener is still up (so load balancers see the status)...
        status, body = _post(server)
        assert status == 503
        assert "draining" in json.loads(body)["error"]
        # ...but the in-flight request is allowed to finish normally.
        assert "response" not in outcome
        release.set()
        worker.join(timeout=20)
        closer.join(timeout=20)
        status, body = outcome["response"]
        assert status == 200
        assert json.loads(body)["explanations"] == []

    def test_inflight_stream_completes_through_drain(self, slow_served):
        server, service, started, release = slow_served
        outcome = {}

        def stream():
            connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                    timeout=30)
            connection.request("POST", "/explain/stream", body=BODY)
            response = connection.getresponse()
            outcome["events"] = [json.loads(line) for line in
                                 response.read().decode().strip().split("\n")]
            connection.close()

        worker = threading.Thread(target=stream)
        worker.start()
        assert started.wait(timeout=20)
        closer = threading.Thread(target=server.close)
        closer.start()
        release.set()
        worker.join(timeout=20)
        closer.join(timeout=20)
        kinds = [event["event"] for event in outcome["events"]]
        assert "progress" in kinds
        assert kinds[-1] == "report"

    def test_close_flushes_the_exporter(self, spotify_small, monkeypatch):
        delivered = []

        def slow_sink(payload):
            time.sleep(0.5)  # still delivering when close() is called
            delivered.append(payload)

        exporter = SpanExporter(slow_sink)
        install_span_exporter(exporter, key="drain-test")
        monkeypatch.setenv("REPRO_TRACE", "1")
        service = ExplanationService()
        server = ExplanationServer(service,
                                   frames={"spotify": spotify_small}).start()
        try:
            status, _ = _post(server)
            assert status == 200
            server.close()
            # Every span of the served request reached the sink before
            # close() returned — nothing left queued.
            names = [span["name"]
                     for payload in delivered
                     for entry in payload["resourceSpans"]
                     for scope in entry["scopeSpans"]
                     for span in scope["spans"]]
            assert "explain" in names
            assert exporter.stats()["queued"] == 0
        finally:
            uninstall_span_exporter("drain-test")
            exporter.close()
            service.close()

    def test_concurrent_close_is_idempotent(self, slow_served):
        server, service, started, release = slow_served
        worker = threading.Thread(target=_post, args=(server,))
        worker.start()
        assert started.wait(timeout=20)

        finished = []

        def closer():
            server.close(timeout_s=30)
            finished.append(True)

        closers = [threading.Thread(target=closer) for _ in range(4)]
        for thread in closers:
            thread.start()
        release.set()
        for thread in closers:
            thread.join(timeout=30)
        worker.join(timeout=20)
        assert finished == [True] * 4
        # A straggler close() after the fact returns immediately.
        server.close()

    def test_close_before_start_is_a_no_op(self):
        service = ExplanationService()
        server = ExplanationServer(service)
        server.close()
        service.close()

    def test_listener_is_gone_after_close(self, spotify_small):
        service = ExplanationService()
        server = ExplanationServer(service,
                                   frames={"spotify": spotify_small}).start()
        port = server.port
        server.close()
        service.close()
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz",
                                   timeout=0.5)

    def test_close_cancelling_a_closing_handler_logs_no_error(
            self, spotify_small, monkeypatch, caplog):
        """close() cancels a handler parked in ``writer.wait_closed()``.

        The CancelledError must stay inside the handler; escaping it makes
        Python 3.11's asyncio log an ERROR from StreamReaderProtocol.
        """
        parked = threading.Event()

        async def parked_wait_closed(self):
            parked.set()
            await asyncio.sleep(3600)

        monkeypatch.setattr(asyncio.StreamWriter, "wait_closed",
                            parked_wait_closed)
        service = ExplanationService(service_config=ServiceConfig(workers=1))
        server = ExplanationServer(service,
                                   frames={"spotify": spotify_small}).start()
        try:
            connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                    timeout=30)
            connection.request("GET", "/healthz",
                               headers={"Connection": "close"})
            assert connection.getresponse().status == 200
            connection.close()
            assert parked.wait(timeout=30)
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                server.close()
        finally:
            server.close()
            service.close()
        assert [record for record in caplog.records
                if record.name == "asyncio" and record.levelno >= logging.ERROR] == []
