"""The span export tier: OTLP shapes, sinks, the bounded queue, retry,
env wiring and flushing every installed exporter."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.obs.export import (
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
from repro.obs.trace import (
    Tracer,
    add_trace_consumer,
    begin_request,
    end_request,
    remove_trace_consumer,
    tracing,
)


def _sample_trace():
    tracer = Tracer()
    with tracer.span("explain", tenant="a"):
        with tracer.span("phase3.contribution"):
            pass
        tracer.event("cache.hit", n=3)
    return tracer.finish()


def _drain(exporter, timeout_s=5.0):
    assert exporter.flush(timeout_s), f"exporter did not drain: {exporter.stats()}"


# ----------------------------------------------------------------- OTLP shape
class TestOtlpShapes:
    def test_trace_ids_are_hex_and_sized(self):
        trace = _sample_trace()
        entry = trace_to_otlp(trace)
        spans = entry["scopeSpans"][0]["spans"]
        for span in spans:
            assert len(span["traceId"]) == 32
            int(span["traceId"], 16)
            assert len(span["spanId"]) == 16
            int(span["spanId"], 16)

    def test_parent_links_and_times(self):
        trace = _sample_trace()
        spans = trace_to_otlp(trace)["scopeSpans"][0]["spans"]
        by_name = {span["name"]: span for span in spans}
        root = by_name["explain"]
        child = by_name["phase3.contribution"]
        assert "parentSpanId" not in root
        assert child["parentSpanId"] == root["spanId"]
        for span in spans:
            assert int(span["endTimeUnixNano"]) >= int(span["startTimeUnixNano"])
        # origin_epoch anchors the root near "now", not 1970.
        assert int(root["startTimeUnixNano"]) > 1e18

    def test_attributes_are_anyvalue_wrapped(self):
        trace = _sample_trace()
        spans = trace_to_otlp(trace)["scopeSpans"][0]["spans"]
        root = next(span for span in spans if span["name"] == "explain")
        attrs = {item["key"]: item["value"] for item in root["attributes"]}
        assert attrs["tenant"] == {"stringValue": "a"}
        event = next(span for span in spans if span["name"] == "cache.hit")
        attrs = {item["key"]: item["value"] for item in event["attributes"]}
        assert attrs["count"] == {"intValue": "3"}

    def test_batch_payload_is_json_serialisable(self):
        payload = spans_payload([_sample_trace(), _sample_trace()])
        parsed = json.loads(json.dumps(payload))
        assert len(parsed["resourceSpans"]) == 2

# ---------------------------------------------------------------------- sinks
class TestSinks:
    def test_resolve_sink_dispatch(self, tmp_path):
        assert isinstance(resolve_sink("http://collector:4318/v1/traces"), HTTPSink)
        assert isinstance(resolve_sink(str(tmp_path / "out.jsonl")), FileSink)
        def sink(payload):
            pass

        assert resolve_sink(sink) is sink

    def test_file_sink_appends_jsonl(self, tmp_path):
        sink = FileSink(tmp_path / "out.jsonl")
        sink({"a": 1})
        sink({"b": 2})
        lines = (tmp_path / "out.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == [{"a": 1}, {"b": 2}]


# ------------------------------------------------------------------- exporter
class TestSpanExporter:
    def test_round_trip_through_file_sink(self, tmp_path):
        path = tmp_path / "otlp.jsonl"
        with SpanExporter(str(path), flush_interval_s=0.02) as exporter:
            for _ in range(3):
                assert exporter.export(_sample_trace())
            _drain(exporter)
        names = []
        for line in path.read_text().splitlines():
            payload = json.loads(line)
            for entry in payload["resourceSpans"]:
                for scope in entry["scopeSpans"]:
                    names.extend(span["name"] for span in scope["spans"])
        assert names.count("explain") == 3

    def test_batches_collapse_queued_items(self):
        batches = []
        gate = threading.Event()

        def sink(payload):
            gate.wait(5)
            batches.append(len(payload["resourceSpans"]))

        exporter = SpanExporter(sink, queue_max=64, batch_max=64,
                                flush_interval_s=0.02)
        # First item occupies the worker inside the gated sink; the rest
        # pile up in the queue and must flush as one batch.
        exporter.export(_sample_trace())
        time.sleep(0.05)
        for _ in range(5):
            exporter.export(_sample_trace())
        gate.set()
        _drain(exporter)
        exporter.close()
        assert sum(batches) == 6
        assert max(batches) >= 5

    def test_full_queue_drops_and_counts_without_blocking(self):
        stall = threading.Event()
        exporter = SpanExporter(lambda payload: stall.wait(30),
                                queue_max=2, flush_interval_s=0.02,
                                retry_max=0)
        time.sleep(0.05)  # let the worker pick up the first stalled batch
        started = time.perf_counter()
        results = [exporter.export(_sample_trace()) for _ in range(20)]
        elapsed = time.perf_counter() - started
        assert elapsed < 0.5, "submit must never block on a stalled sink"
        stats = exporter.stats()
        assert results.count(False) == stats["dropped"]
        # 20 submits against a 2-slot queue: at most a couple ride along in
        # the worker's first (stalled) batch, everything else must drop.
        assert stats["dropped"] >= 15
        stall.set()
        exporter.close()

    def test_retry_with_backoff_then_success(self):
        attempts = []

        def flaky(payload):
            attempts.append(time.perf_counter())
            if len(attempts) < 3:
                raise OSError("collector down")

        exporter = SpanExporter(flaky, retry_max=3, backoff_base_s=0.01,
                                flush_interval_s=0.02)
        assert exporter.export(_sample_trace())
        _drain(exporter)
        exporter.close()
        stats = exporter.stats()
        assert len(attempts) == 3
        assert stats["retries"] == 2
        assert stats["exported"] == 1
        assert stats["dropped"] == 0
        # Exponential spacing: the second gap is at least as long as the first.
        assert (attempts[2] - attempts[1]) >= (attempts[1] - attempts[0]) * 0.5

    def test_exhausted_retries_drop_the_batch(self):
        def broken(payload):
            raise OSError("collector gone")

        exporter = SpanExporter(broken, retry_max=1, backoff_base_s=0.001,
                                flush_interval_s=0.01)
        exporter.export(_sample_trace())
        _drain(exporter)
        exporter.close()
        stats = exporter.stats()
        assert stats["dropped"] == 1
        assert stats["exported"] == 0
        assert stats["retries"] == 1

    def test_closed_exporter_drops(self):
        exporter = SpanExporter(lambda payload: None)
        exporter.close()
        assert exporter.export(_sample_trace()) is False
        assert exporter.stats()["dropped"] == 1


# ----------------------------------------------------------------- trace ring
class TestTraceRing:
    def test_bounded_most_recent_first(self):
        ring = TraceRing(capacity=2)
        traces = [_sample_trace() for _ in range(3)]
        for trace in traces:
            ring.add(trace)
        kept = ring.traces()
        assert len(ring) == 2
        assert [t.trace_id for t in kept] == [traces[2].trace_id,
                                              traces[1].trace_id]

    def test_clear(self):
        ring = TraceRing()
        ring.add(_sample_trace())
        ring.clear()
        assert len(ring) == 0


# ------------------------------------------------------------- trace consumers
class TestTraceConsumers:
    def test_consumer_sees_every_owned_trace(self):
        seen = []
        add_trace_consumer("test-consumer", seen.append)
        try:
            with tracing(True):
                tracer, token = begin_request()
                with tracer.span("explain"):
                    pass
                trace = end_request(tracer, token)
            assert [t.trace_id for t in seen] == [trace.trace_id]
        finally:
            remove_trace_consumer("test-consumer")

    def test_broken_consumer_never_fails_the_request(self):
        add_trace_consumer("broken", lambda trace: 1 / 0)
        try:
            with tracing(True):
                tracer, token = begin_request()
                with tracer.span("explain"):
                    pass
                assert end_request(tracer, token) is not None
        finally:
            remove_trace_consumer("broken")

    def test_env_exporter_installs_and_retires(self, tmp_path, monkeypatch):
        path = tmp_path / "otlp.jsonl"
        monkeypatch.setenv("REPRO_OTLP_SINK", str(path))
        exporter = ensure_env_exporter()
        assert exporter is not None
        assert ensure_env_exporter() is exporter  # idempotent
        with tracing(True):
            tracer, token = begin_request()
            with tracer.span("explain"):
                pass
            end_request(tracer, token)
        _drain(exporter)
        assert "explain" in path.read_text()
        monkeypatch.delenv("REPRO_OTLP_SINK")
        assert ensure_env_exporter() is None

    def test_flush_covers_installed_and_env_exporters(self, tmp_path,
                                                      monkeypatch):
        delivered = []

        def slow_sink(payload):
            time.sleep(0.2)  # still delivering when the flush starts
            delivered.append(payload)

        installed = SpanExporter(slow_sink)
        install_span_exporter(installed, key="flush-test")
        monkeypatch.setenv("REPRO_OTLP_SINK", str(tmp_path / "env.jsonl"))
        try:
            with tracing(True):
                tracer, token = begin_request()
                with tracer.span("explain"):
                    pass
                end_request(tracer, token)
            assert flush_span_exporters(5.0)
            assert len(delivered) == 1
            assert "explain" in (tmp_path / "env.jsonl").read_text()
        finally:
            uninstall_span_exporter("flush-test")
            installed.close()
            monkeypatch.delenv("REPRO_OTLP_SINK")
            ensure_env_exporter()
