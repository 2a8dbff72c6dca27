"""Tests of the benchmark's own logic (not of the program it measures).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.  The end-to-end
smoke run is ``python3 perfbench/run.py --smoke``.
"""

from __future__ import annotations

import importlib.util
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import pb_ledger  # noqa: E402
import pb_measure  # noqa: E402
import pb_requests as gen  # noqa: E402


def _load_run():
    """``run.py`` under a name no other module on the path can shadow."""
    module = sys.modules.get("perfbench_run")
    if module is None:
        spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    return module


# ------------------------------------------------------------ percentile rule
class TestPercentileRule:
    def test_p90_needs_ten_samples_beyond_it(self):
        values = list(range(1, 101))
        assert pb_measure.tail_percentile(values, 90) == (90, 90.0, 10)

    def test_falls_back_to_the_highest_supported_percentile(self):
        percentile, value, beyond = pb_measure.tail_percentile(list(range(1, 100)), 90)
        assert (percentile, beyond) == (89, 10)
        assert value == 89.0

    def test_small_samples_support_no_tail(self):
        assert pb_measure.tail_percentile(list(range(15)), 90) is None
        assert pb_measure.tail_percentile(list(range(20)), 90)[0] == 50

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0] * 30
        assert pb_measure.tail_percentile(values) == \
            pb_measure.tail_percentile(sorted(values))

    def test_samples_for_percentile(self):
        assert pb_measure.samples_for_percentile(90) == 100
        assert pb_measure.samples_for_percentile(50) == 20

    def test_every_full_run_supports_p90(self):
        run = _load_run()
        assert min(run.FULL.min_requests.values()) >= pb_measure.samples_for_percentile(90)

    def test_summary_prints_percentile_and_count(self, capsys):
        run = _load_run()
        bench = run.Bench("replay_hot", 1, run.SMOKE, False)
        window = run.Window()
        request = gen.paper_request(6)
        window.records = [(request, pb_measure.Outcome(latency_s=i / 1e3))
                          for i in range(1, 121)]
        window.wall_s = 1.0
        run.describe(bench, [window], {})
        out = capsys.readouterr().out
        assert "p50 over n=120; p90 with 12 samples beyond it" in out


# --------------------------------------------------------- failure accounting
class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):  # keep test output quiet
        pass

    def _send(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/explain":
            self._send(200, json.dumps({"explanations": [], "timings": {"x": 1.0}}).encode())
        elif self.path == "/explain/stream":
            lines = [{"event": "progress", "pair": 1},
                     {"event": "error", "status": 500, "error": "boom"}]
            self._send(200, b"".join(json.dumps(line).encode() + b"\n" for line in lines))
        elif self.path == "/fail":
            self._send(503, b'{"error": "draining"}')
        elif self.path == "/slow":
            time.sleep(1.0)
            self._send(200, b"{}")


@pytest.fixture
def fake_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestFailureAccounting:
    def test_every_failure_kind_counts_as_failed(self, fake_server):
        run = _load_run()
        client = pb_measure.Client("127.0.0.1", fake_server, timeout_s=0.3)
        request = gen.paper_request(6)
        good = client.send("/explain", b"{}")
        assert good.ok and good.status == 200
        outcomes = {
            "status": client.send("/fail", b"{}"),
            "timeout": client.send("/slow", b"{}"),
            "error_event": client.send("/explain/stream", b"{}"),
            "refused": pb_measure.Client("127.0.0.1", _closed_port()).send("/explain", b"{}"),
        }
        wrong = client.send("/explain", b"{}")
        client.close()
        refs = {request.key: b'{"explanations":["something else"]}'}
        assert run.check([(request, wrong)], refs) == 1
        outcomes["wrong_bytes"] = wrong
        for kind, outcome in outcomes.items():
            assert not outcome.ok
            assert outcome.failure == kind
        counts = pb_measure.failure_counts(list(outcomes.values()) + [good])
        assert sum(counts.values()) == 5
        summary = pb_measure.failure_summary(list(outcomes.values()) + [good])
        assert summary.startswith("failed_share 0.8333 (5 of 6")

    def test_matching_report_passes_the_check(self, fake_server):
        run = _load_run()
        request = gen.paper_request(6)
        outcome = pb_measure.Client("127.0.0.1", fake_server).send("/explain", b"{}")
        refs = {request.key: pb_measure.canonical_report({"explanations": []})}
        assert run.check([(request, outcome)], refs) == 1
        assert outcome.ok

    def test_canonical_report_ignores_timings_only(self):
        a = pb_measure.canonical_report({"b": 1, "a": [1.5], "timings": {"x": 1}})
        b = pb_measure.canonical_report({"a": [1.5], "b": 1, "timings": {"x": 2}})
        assert a == b
        assert a != pb_measure.canonical_report({"a": [1.5], "b": 2})
        streamed = json.dumps({"event": "report", "report": {"a": [1.5], "b": 1}}).encode()
        assert pb_measure.canonical_payload(streamed) == a


# ------------------------------------------------------ generator determinism
class TestGeneratorDeterminism:
    def test_paper30_passes_are_seeded_permutations(self):
        first = gen.paper30_pass(1, 0)
        assert first == gen.paper30_pass(1, 0)
        assert first != gen.paper30_pass(2, 0)
        assert first != gen.paper30_pass(1, 1)
        assert sorted(r.body for r in first) == sorted(r.body for r in gen.paper30_pass(2, 0))
        assert len({r.key for r in first}) == 30

    def test_replay_passes_cover_the_queries_as_many_tenants(self):
        requests = [r for p in range(8) for r in gen.replay_pass(1, 0, p)]
        assert requests == [r for p in range(8) for r in gen.replay_pass(1, 0, p)]
        assert requests != [r for p in range(8) for r in gen.replay_pass(1, 1, p)]
        assert len({r.key for r in requests}) == 30
        assert len({r.token for r in requests}) > 32
        assert set(r.token for r in requests) <= set(gen.tenant_tokens())

    def test_explore_stream_is_seeded_and_never_repeats_a_key(self):
        timed = gen.explore_prefix(1, "timed", 400)
        assert timed == gen.explore_prefix(1, "timed", 400)
        assert timed != gen.explore_prefix(2, "timed", 400)
        assert len({r.key for r in timed}) == 400
        warm = {r.key for r in gen.explore_prefix(1, "warmup", 400)}
        assert not warm & {r.key for r in timed}

    def test_warm_up_filler_never_repeats_or_meets_the_timed_stream(self):
        stream = gen.ExploreStream(1, "warmup")
        filler = [next(stream.fill()) for _ in range(300)]
        assert len({r.key for r in filler}) == 300
        timed = {r.key for r in gen.explore_prefix(1, "timed", 400)}
        assert not timed & {r.key for r in filler}

    def test_explore_blocks_fix_the_mix(self):
        stream = gen.ExploreStream(3, "timed")
        block = [next(stream) for _ in range(stream.block_size)]
        assert sorted(r.template[:2] for r in block) == sorted(stream._templates)
        mixes = [gen.request_mix(gen.explore_prefix(seed, "timed", 100))
                 for seed in (1, 2)]
        assert mixes[0]["by_kind_dataset"] == mixes[1]["by_kind_dataset"]

    def test_explore_refinements_stay_inside_their_strata(self):
        for request in gen.explore_prefix(5, "timed", 200):
            document = json.loads(request.body)
            _, index, stratum = request.template
            if request.kind == "filter":
                value = float(document["query"].rsplit(" ", 1)[1])
                edges = gen.FILTER_TEMPLATES[index][2]
            else:
                value = document["config"]["sample_size"]
                edges = gen.SAMPLE_SIZE_EDGES
                assert value % 2 == 1
            assert edges[stratum] <= value < edges[stratum + 1]

    def test_every_cycle_of_blocks_covers_every_stratum(self):
        requests = gen.explore_prefix(7, "timed", 25 * gen.STRATA)
        strata = {}
        for request in requests:
            strata.setdefault(request.template[:2], set()).add(request.template[2])
        assert all(found == set(range(gen.STRATA)) for found in strata.values())

    def test_request_mix_and_predicted_memo_misses(self):
        requests = gen.paper30_pass(1, 0) + gen.paper30_pass(1, 1)
        mix = gen.request_mix(requests)
        assert mix["distinct_report_keys"] == 30
        assert mix["by_kind_dataset"]["join/products"] == 6
        assert sum(mix["by_kind_dataset"].values()) == 60
        run = _load_run()
        bench = run.Bench("replay_hot", 1, run.SMOKE, False)
        bench.note_sent(requests)
        assert (bench.predicted_misses, bench.sent) == (30, 60)
        bench.note_sent(requests)
        assert (bench.predicted_misses, bench.sent) == (30, 120)

    def test_checked_positions_are_seeded(self):
        assert gen.checked_positions(1, 30, 8) == gen.checked_positions(1, 30, 8)
        assert len(set(gen.checked_positions(1, 30, 8))) == 8
        assert max(gen.checked_positions(2, 30, 8)) < 30


# -------------------------------------------------------------------- ledger
class TestLedger:
    def test_covered_time_is_a_clipped_union(self):
        intervals = [("a", 0.0, 2.0), ("b", 1.0, 3.0), ("c", 5.0, 6.0), ("d", 9.0, 12.0)]
        assert pb_ledger.covered_time(intervals, 0.5, 10.0) == pytest.approx(2.5 + 1.0 + 1.0)
        assert pb_ledger.covered_time([], 0.0, 1.0) == 0.0

    def test_nested_calls_of_one_group_count_once(self):
        class Work:
            def outer(self):
                time.sleep(0.01)
                return self.inner()

            def inner(self):
                time.sleep(0.01)
                return 1

        original = Work.__dict__["outer"]
        ledger = pb_ledger.Ledger()
        ledger.wrap(Work, "outer", "outer", group="g")
        ledger.wrap(Work, "inner", "inner", group="g")
        try:
            assert Work().outer() == 1
            assert Work().inner() == 1
        finally:
            ledger.uninstall()
        snapshot = ledger.snapshot()
        assert snapshot["calls"] == {"outer": 1, "inner": 1}
        assert snapshot["busy_s"]["outer"] >= 0.02
        assert Work.__dict__["outer"] is original


# ------------------------------------------------------- benchmark definition
class TestDefinition:
    def test_benchmark_json_matches_the_metrics_the_run_prints(self):
        run = _load_run()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
        assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])

    def test_spec_records_every_metric_and_workload(self):
        run = _load_run()
        spec = json.loads((HERE / "spec.json").read_text())
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert set(spec["per_layer"]) == set(run.PER_LAYER)
        assert set(spec["end_to_end"]) == set(run.END_TO_END)
        directions = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
        for name, entry in {**spec["end_to_end"], **spec["per_layer"]}.items():
            assert entry["better"] == directions[name]
        for entry in spec["per_layer"].values():
            for metric, workload in entry["moves"]:
                assert metric in run.END_TO_END
                assert workload in run.WORKLOADS or workload == "all"
        for name, shape in run.WORKLOADS.items():
            assert spec["workloads"][name]["connections"] == shape["connections"]
        assert spec["seeds"] == {"default": gen.DEFAULT_SEED,
                                 "held_out": gen.HELD_OUT_SEED,
                                 "data_seed": gen.DATA_SEED}
