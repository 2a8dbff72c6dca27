"""Tracing: span trees, events, activation scoping, shipping, determinism."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.config import FedexConfig
from repro.dataframe.column import Column
from repro.dataframe.frame import DataFrame
from repro.dataframe.predicates import Comparison
from repro.explain import ExplainableDataFrame
from repro.obs.trace import (
    NOOP_TRACER,
    Span,
    Trace,
    Tracer,
    append_jsonl,
    begin_request,
    current_tracer,
    end_request,
    read_traces,
    trace_path,
    tracing,
    tracing_enabled,
)


@pytest.fixture
def frame():
    rng = np.random.default_rng(7)
    return DataFrame([
        Column("x", rng.normal(size=600)),
        Column("g", rng.integers(0, 5, size=600).astype(float)),
    ])


# --------------------------------------------------------------------- tracer
class TestTracer:
    def test_spans_nest_by_thread_stack(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        trace = tracer.finish()
        (outer,) = trace.find("outer")
        (inner,) = trace.find("inner")
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert trace.children(outer) == [inner]

    def test_span_measures_wall_and_cpu(self):
        tracer = Tracer()
        with tracer.span("work"):
            sum(range(10000))
        (span,) = tracer.finish().find("work")
        assert span.wall_s > 0
        assert span.cpu_s >= 0

    def test_span_attrs_and_updates(self):
        tracer = Tracer()
        with tracer.span("work", rows=10) as handle:
            handle.set("phase", "b")
            handle.add("hits")
            handle.add("hits", 2)
        (span,) = tracer.finish().find("work")
        assert span.attrs == {"rows": 10, "phase": "b", "hits": 3}

    def test_exception_marks_the_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("work"):
                raise RuntimeError("boom")
        (span,) = tracer.finish().find("work")
        assert span.attrs["error"] == "RuntimeError"

    def test_explicit_parent_crosses_threads(self):
        tracer = Tracer()
        with tracer.span("submit") as handle:
            parent = handle.span

            def worker() -> None:
                with tracer.span("pool-work", parent=parent):
                    pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        trace = tracer.finish()
        (work,) = trace.find("pool-work")
        assert work.parent_id == parent.span_id

    def test_events_aggregate_by_parent_name_labels(self):
        tracer = Tracer()
        with tracer.span("request"):
            for _ in range(5):
                tracer.event("cache.lookup", labels={"outcome": "hit"})
            tracer.event("cache.lookup", labels={"outcome": "miss"}, n=2)
            tracer.event("lock.wait", seconds=3)
            tracer.event("lock.wait", seconds=4)
        trace = tracer.finish()
        lookups = {span.attrs["outcome"]: span.attrs["count"]
                   for span in trace.find("cache.lookup")}
        assert lookups == {"hit": 5, "miss": 2}
        (wait,) = trace.find("lock.wait")
        assert wait.attrs["count"] == 2
        assert wait.attrs["seconds"] == 7
        assert wait.is_event

    def test_add_span_records_pre_measured_work(self):
        tracer = Tracer()
        with tracer.span("request") as handle:
            tracer.add_span("batch", parent=handle.span,
                            started_pc=tracer._origin + 1.0,
                            wall_s=0.25, pairs=4)
        trace = tracer.finish()
        (batch,) = trace.find("batch")
        assert batch.wall_s == 0.25
        assert batch.started_s == pytest.approx(1.0)
        assert batch.attrs["pairs"] == 4

    def test_attach_spans_remaps_ids_and_grafts_orphans(self):
        worker = Tracer()
        with worker.span("worker.batch"):
            with worker.span("worker.pair"):
                pass
        shipped = worker.export()

        parent = Tracer()
        with parent.span("request") as handle:
            anchor = parent.add_span("process.batch", parent=handle.span)
            parent.attach_spans(shipped, parent=anchor)
        trace = parent.finish()
        (batch,) = trace.find("worker.batch")
        (pair,) = trace.find("worker.pair")
        assert batch.parent_id == anchor.span_id
        assert pair.parent_id == batch.span_id
        # Remapped ids are unique across the whole trace.
        ids = [span.span_id for span in trace.spans]
        assert len(ids) == len(set(ids))

    def test_attach_empty_payload_is_a_noop(self):
        tracer = Tracer()
        tracer.attach_spans([], parent=None)
        assert tracer.finish().spans == []

    def test_concurrent_recording_is_exact(self):
        tracer = Tracer()
        threads = 6
        per_thread = 300
        barrier = threading.Barrier(threads)

        def hammer() -> None:
            barrier.wait()
            for _ in range(per_thread):
                with tracer.span("work"):
                    pass

        pool = [threading.Thread(target=hammer) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        trace = tracer.finish()
        assert len(trace.find("work")) == threads * per_thread
        ids = [span.span_id for span in trace.spans]
        assert len(ids) == len(set(ids))

    def test_noop_tracer_is_inert(self):
        assert NOOP_TRACER.enabled is False
        with NOOP_TRACER.span("anything", rows=1) as handle:
            handle.set("k", "v")
            handle.add("n")
        NOOP_TRACER.event("cache.lookup", labels={"outcome": "hit"})
        NOOP_TRACER.attach_spans([{"span_id": 1, "name": "x"}])
        assert NOOP_TRACER.export() == []
        assert NOOP_TRACER.current_span() is None


# ---------------------------------------------------------------------- trace
class TestTrace:
    def build(self) -> Trace:
        tracer = Tracer()
        with tracer.span("explain", backend="incremental"):
            with tracer.span("phase1.interestingness"):
                pass
            tracer.event("cache.lookup", labels={"outcome": "hit"}, n=3)
        return tracer.finish()

    def test_render_text_tree(self):
        text = self.build().render_text()
        lines = text.splitlines()
        assert lines[0].startswith("trace ")
        assert lines[1].startswith("  explain ")
        assert "{backend=incremental}" in lines[1]
        assert lines[2].startswith("    phase1.interestingness ")
        assert "cache.lookup ×3" in text

    def test_span_names_and_total_wall(self):
        trace = self.build()
        assert trace.span_names()[0] == "explain"
        assert trace.total_wall("explain") == trace.find("explain")[0].wall_s

    def test_dict_roundtrip(self):
        trace = self.build()
        back = Trace.from_dicts(trace.to_dicts())
        assert back.trace_id == trace.trace_id
        assert back.to_dicts() == trace.to_dicts()

    def test_jsonl_roundtrip(self):
        trace = self.build()
        back = Trace.from_jsonl(trace.to_jsonl())
        assert back.to_dicts() == trace.to_dicts()

    def test_from_dicts_rejects_mixed_traces(self):
        a = self.build().to_dicts()
        b = self.build().to_dicts()
        with pytest.raises(ValueError, match="multiple traces"):
            Trace.from_dicts(a + b)

    def test_file_append_and_read(self, tmp_path):
        path = str(tmp_path / "traces.jsonl")
        first, second = self.build(), self.build()
        append_jsonl(first, path)
        append_jsonl(second, path)
        loaded = read_traces(path)
        assert [trace.trace_id for trace in loaded] == [
            first.trace_id, second.trace_id]
        assert loaded[0].to_dicts() == first.to_dicts()


# ----------------------------------------------------------------- activation
class TestActivation:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert not tracing_enabled()
        assert current_tracer() is NOOP_TRACER

    @pytest.mark.parametrize("value", ["0", "false", "no", "off", ""])
    def test_falsy_env_values_disable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRACE", value)
        assert not tracing_enabled()
        assert trace_path() is None

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_truthy_flags_enable_without_a_path(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRACE", value)
        assert tracing_enabled()
        assert trace_path() is None

    def test_path_value_enables_and_names_the_dump(self, monkeypatch, tmp_path):
        dump = str(tmp_path / "traces.jsonl")
        monkeypatch.setenv("REPRO_TRACE", dump)
        assert tracing_enabled()
        assert trace_path() == dump

    def test_tracing_context_beats_the_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        with tracing(False):
            assert not tracing_enabled()
            with tracing(True):  # innermost wins
                assert tracing_enabled()
            assert not tracing_enabled()
        assert tracing_enabled()

    def test_begin_request_noop_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        tracer, token = begin_request()
        assert tracer is NOOP_TRACER and token is None
        assert end_request(tracer, token) is None

    def test_begin_request_activates_and_end_finishes(self):
        with tracing(True):
            tracer, token = begin_request()
            assert tracer.enabled and token is not None
            assert current_tracer() is tracer
            with tracer.span("request"):
                pass
            trace = end_request(tracer, token)
        assert current_tracer() is NOOP_TRACER
        assert trace is not None and trace.find("request")

    def test_nested_request_reuses_the_outer_tracer(self):
        with tracing(True):
            outer, outer_token = begin_request()
            inner, inner_token = begin_request()
            assert inner is outer and inner_token is None
            assert end_request(inner, inner_token) is None
            assert end_request(outer, outer_token) is not None

    def test_end_request_appends_to_the_env_dump(self, monkeypatch, tmp_path):
        dump = str(tmp_path / "traces.jsonl")
        monkeypatch.setenv("REPRO_TRACE", dump)
        tracer, token = begin_request()
        with tracer.span("request"):
            pass
        end_request(tracer, token)
        (loaded,) = read_traces(dump)
        assert loaded.find("request")

    def test_unwritable_dump_path_never_fails_the_request(self, monkeypatch,
                                                          tmp_path):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "no" / "such" / "dir.jsonl"))
        tracer, token = begin_request()
        trace = end_request(tracer, token)
        assert trace is not None  # the OSError was swallowed


# ----------------------------------------------------------- engine integration
class TestEngineIntegration:
    def test_traced_explain_carries_the_phase_tree(self, frame):
        with tracing(True):
            report = ExplainableDataFrame(frame, config=FedexConfig()).filter(
                Comparison("x", ">", 0.0)).explain()
        assert report.trace is not None
        names = report.trace.span_names()
        for phase in ("explain", "phase1.interestingness", "phase2.partitioning",
                      "phase3.contribution", "phase4.skyline",
                      "phase5.visualization"):
            assert phase in names
        (root,) = report.trace.find("explain")
        phases = report.trace.children(root)
        assert [span.name for span in phases] == [
            "phase1.interestingness", "phase2.partitioning",
            "phase3.contribution", "phase4.skyline", "phase5.visualization"]

    def test_untraced_explain_has_no_trace(self, frame):
        with tracing(False):
            report = ExplainableDataFrame(frame, config=FedexConfig()).filter(
                Comparison("x", ">", 0.0)).explain()
        assert report.trace is None

    def test_tracing_changes_nothing_but_the_trace(self, frame):
        wrapped = ExplainableDataFrame(frame, config=FedexConfig()).filter(
            Comparison("x", ">", 0.0))
        with tracing(False):
            untraced = wrapped.explain()
        with tracing(True):
            traced = wrapped.explain()
        assert traced.trace is not None and untraced.trace is None
        assert {c.key(): (c.contribution, c.standardized_contribution)
                for c in traced.all_candidates} == {
            c.key(): (c.contribution, c.standardized_contribution)
            for c in untraced.all_candidates}
        assert [e.render_text() for e in traced.explanations] == [
            e.render_text() for e in untraced.explanations]


# ------------------------------------------------------------ concurrent dumps
class TestConcurrentDump:
    def test_threads_appending_jsonl_stay_line_atomic(self, tmp_path):
        """Many threads dumping traces into one file: every line parses,
        every trace regroups intact — no torn or interleaved spans."""
        path = str(tmp_path / "traces.jsonl")
        barrier = threading.Barrier(8)
        errors = []

        def worker(worker_id):
            try:
                barrier.wait(5)
                for i in range(25):
                    tracer = Tracer()
                    tracer.trace_id = f"w{worker_id}-{i}"
                    with tracer.span("explain", worker=worker_id):
                        with tracer.span("phase3.contribution"):
                            pass
                        tracer.event("cache.hit", n=i)
                    append_jsonl(tracer.finish(), path)
            except Exception as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert errors == []

        import json
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 8 * 25 * 3  # 2 spans + 1 event per trace
        for line in lines:
            json.loads(line)  # every single line is intact JSON

        traces = {trace.trace_id: trace for trace in read_traces(path)}
        assert len(traces) == 8 * 25
        for worker_id in range(8):
            for i in range(25):
                trace = traces[f"w{worker_id}-{i}"]
                assert [span.name for span in trace.spans] == [
                    "explain", "phase3.contribution", "cache.hit"]
