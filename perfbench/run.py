"""HTTP explain benchmark: a cold paper suite, a warm exploration session and
a hot multi-tenant replay, with a traced per-layer ledger.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper30_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all   # every workload in turn
    python3 perfbench/run.py --smoke          # every workload, briefly, traced

The benchmark generates the Appendix-A tables, writes them to a
``DatasetStore``, starts ``perfbench/pb_server.py`` (the HTTP front end over
the explanation service) as its own process, and drives it from this process
in a closed loop.  Before it, a summary names the request mix, the sample
count behind each percentile and every failure by kind.  The last stdout
line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run measures an untraced half, installs the per-layer ledger in the
server and measures a traced half, and the metrics are the per-layer ones
(plus the tracing overhead between the two halves).  ``spec.json`` records
each workload's shape and which end-to-end metric each layer should move.

Every response is checked against a reference computed in this process by
``ExplanationService.explain`` over the same data (all of ``paper30_cold``
and ``replay_hot``, a seeded subset of ``explore_warm``, whose streamed
reports are also compared with the plain endpoint).  References are cached
under ``.perfbench/`` keyed by a digest of ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
HOST = "127.0.0.1"

from pb_measure import (  # noqa: E402
    Client,
    Outcome,
    canonical_payload,
    canonical_report,
    failure_counts,
    failure_summary,
    median,
    tail_percentile,
)
import pb_requests as gen  # noqa: E402

#: Workload shapes: cache budget of the service (0 = default 256 MiB) and
#: client connections.  Every loop is closed.
WORKLOADS = {
    "paper30_cold": {"budget_mib": 0, "connections": 1},
    "explore_warm": {"budget_mib": 128, "connections": 1},
    "replay_hot": {"budget_mib": 0, "connections": 2},
}

#: End-to-end metrics and their units (BENCHMARK.json lists the same).
END_TO_END = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "explains_per_s": "1/s", "first_event_ms": "ms",
    "server_cpu_ms_per_explain": "ms", "server_rss_peak_mib": "MiB",
}

#: Per-layer metrics of the traced run and their units.
PER_LAYER = {
    "serving.request_ms": "ms", "serving.auth_ms": "ms",
    "serving.serialize_ms": "ms", "serving.response_bytes": "B",
    "serving.stream_events": "count", "serving.unattributed_ms": "ms",
    "trace.coverage": "ratio", "trace.overhead_p50_ms": "ms",
    "protocol.parse_ms": "ms", "operators.parse_query_ms": "ms",
    "operators.apply_ms": "ms", "operators.apply_calls": "count",
    "service.admission_wait_ms": "ms", "service.queue_wait_ms": "ms",
    "service.inflight_peak": "count",
    "session.explain_self_ms": "ms", "session.adopt_step_ms": "ms",
    "session.cache_put_ms": "ms", "session.cache_puts": "count",
    "session.measured_bytes_ms": "ms", "session.cache_get_ms": "ms",
    "session.cache_gets": "count",
    "session.report_hit_ratio": "ratio", "session.report_lookups": "count",
    "session.partition_hit_ratio": "ratio", "session.partition_lookups": "count",
    "session.structure_hit_ratio": "ratio", "session.structure_lookups": "count",
    "session.store_mib": "MiB", "session.evictions": "count",
    "storage.open_ms": "ms", "storage.open_calls": "count",
    "core.explain_ms": "ms", "core.phase1_ms": "ms", "core.phase2_ms": "ms",
    "core.phase3_ms": "ms", "core.phase4_ms": "ms", "core.phase5_ms": "ms",
    "core.phase2_share": "ratio",
    "core.partition.frequency_ms": "ms", "core.partition.binning_ms": "ms",
    "core.partition.many_to_one_ms": "ms", "core.partition.validate_ms": "ms",
    "core.partition.find_companions_ms": "ms",
    "core.partition.find_companions_calls": "count",
    "core.partitions": "count", "core.grid_pairs": "count", "core.candidates": "count",
    "dataframe.sample_ms": "ms", "dataframe.factorize_ms": "ms",
    "dataframe.sorted_order_ms": "ms", "dataframe.fingerprint_full_hashes": "count",
    "setup.warmup_s": "s",
}


@dataclass(frozen=True)
class Plan:
    """How much a run does; ``SMOKE`` is the short version of ``FULL``.

    A window's work is fixed before it starts: ``--seconds`` times the
    workload's nominal rate (its throughput on the 2-core host the
    benchmark was tuned on), at least the workload's minimum, rounded up to
    whole units (paper30 passes in reversed pairs, explore cycles of
    ``explore_cycle_blocks`` blocks, replay passes on every connection).
    The work never depends on how fast the program answers, so state that
    grows with requests served (session history, cache) cannot couple a
    speed-up to a memory regression.
    """

    setup_repeats: int
    rates: Dict[str, float]            # nominal requests per second
    min_requests: Dict[str, int]       # per untraced run
    half_min_requests: Dict[str, int]  # per half of a traced run
    explore_checked: int               # checked positions in the first explore block
    warmup_cap_requests: int           # explore warm-up stops here even below budget
    explore_cycle_blocks: int          # explore windows end on a multiple of this
    run_cap_s: float                   # stop measuring after this long in any case

    def requests(self, workload: str, seconds: float, traced_half: bool) -> int:
        """The number of requests a window asks for (before rounding up)."""
        floor = (self.half_min_requests if traced_half else self.min_requests)[workload]
        return max(floor, math.ceil(seconds * self.rates[workload]))


RATES = {"paper30_cold": 4.5, "explore_warm": 7.0, "replay_hot": 120.0}
FULL = Plan(setup_repeats=3, rates=RATES,
            min_requests={"paper30_cold": 120, "explore_warm": 100, "replay_hot": 1200},
            half_min_requests={"paper30_cold": 60, "explore_warm": 100, "replay_hot": 600},
            explore_checked=8, warmup_cap_requests=400,
            explore_cycle_blocks=gen.STRATA, run_cap_s=130.0)
SMOKE = Plan(setup_repeats=1, rates={workload: 0.0 for workload in RATES},
             min_requests={"paper30_cold": 30, "explore_warm": 25, "replay_hot": 60},
             half_min_requests={"paper30_cold": 30, "explore_warm": 25, "replay_hot": 60},
             explore_checked=4, warmup_cap_requests=12, explore_cycle_blocks=1,
             run_cap_s=120.0)


class BenchError(RuntimeError):
    """The run could not produce a result."""


def log(message: str) -> None:
    print(message, flush=True)


# ------------------------------------------------------------------ server
class ServerProcess:
    """``pb_server.py`` as a child process, commanded over its stdin."""

    def __init__(self, store_dir: Path, budget_mib: int, log_path: Path,
                 spans: Optional[Path] = None) -> None:
        command = [sys.executable, str(ROOT / "perfbench" / "pb_server.py"),
                   "--store", str(store_dir), "--budget-mib", str(budget_mib)]
        if spans is not None:
            command += ["--spans", str(spans)]
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        # The server's stderr goes to a file: its shutdown chatter would
        # drown the summary, and the file is printed if the run fails.
        self.log_path = log_path
        with open(log_path, "wb") as log_file:
            self.process = subprocess.Popen(command, stdin=subprocess.PIPE,
                                            stdout=subprocess.PIPE, stderr=log_file,
                                            text=True, cwd=str(ROOT), env=env)
        self.port = self._reply()["port"]

    def _reply(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            self.process.wait()
            error = self.log_path.read_text(errors="replace")[-4000:]
            raise BenchError(f"the server process exited unexpectedly:\n{error}")
        return json.loads(line)

    def command(self, name: str) -> dict:
        self.process.stdin.write(name + "\n")
        self.process.stdin.flush()
        return self._reply()

    def reset(self) -> None:
        self.port = self.command("reset")["port"]

    def stats(self) -> dict:
        return self.command("stats")

    def client(self) -> Client:
        return Client(HOST, self.port)

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.write("quit\n")
                self.process.stdin.close()
            except OSError:
                pass
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


# ------------------------------------------------------------- data, refs
def write_datasets(directory: Path) -> None:
    """Generate the Appendix-A tables and write them to a fresh store."""
    from repro.datasets import DatasetRegistry
    from repro.storage import DatasetStore

    registry = DatasetRegistry(seed=gen.DATA_SEED, **gen.DATA_SIZES)
    store = DatasetStore(directory)
    for name in registry.table_names():
        store.put(name, registry.table(name))
    store.close()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def references(data_dir: Path, requests: List[gen.Request]) -> Dict[bytes, bytes]:
    """Canonical reference report of each request, computed in-process.

    The same data, the same default configuration and the same request
    parser as the server, but ``ExplanationService.explain`` instead of
    HTTP.  Cached on disk by (source digest, data identity, body).
    """
    cache_dir = WORK / "refcache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    identity = source_digest() + json.dumps([gen.DATA_SEED, gen.DATA_SIZES], sort_keys=True)
    found: Dict[bytes, bytes] = {}
    missing: List[Tuple[gen.Request, Path]] = []
    for request in {request.key: request for request in requests}.values():
        path = cache_dir / hashlib.sha256(identity.encode() + request.body).hexdigest()
        if path.is_file():
            found[request.key] = path.read_bytes()
        else:
            missing.append((request, path))
    if not missing:
        return found
    from repro.core import FedexConfig
    from repro.service import ExplanationService
    from repro.serving import dump_json, parse_explain_request, report_document
    from repro.storage import DatasetStore

    store = DatasetStore(data_dir)

    def resolve(name: str):
        try:
            return store.open(name)
        except Exception:
            if name.lower() != name:
                return store.open(name.lower())
            raise

    service = ExplanationService(config=FedexConfig(), dataset_store=store)
    try:
        for request, path in missing:
            parsed = parse_explain_request(request.body, resolve, service.config)
            report = service.explain("reference", parsed.step, measure=parsed.measure,
                                     config=parsed.config)
            canonical = canonical_report(json.loads(dump_json(report_document(report))))
            temporary = path.with_suffix(".tmp")
            temporary.write_bytes(canonical)
            temporary.replace(path)
            found[request.key] = canonical
    finally:
        service.close()
        store.close()
    gc.collect()
    return found


def check(records: List[Tuple[gen.Request, Outcome]], refs: Dict[bytes, bytes]) -> int:
    """Mark responses whose report differs from the reference; returns checks made."""
    memo: Dict[bytes, bytes] = {}
    checked = 0
    for request, outcome in records:
        expected = refs.get(request.key)
        if expected is None or not outcome.ok:
            continue
        canonical = memo.get(outcome.payload)
        if canonical is None:
            try:
                canonical = canonical_payload(outcome.payload)
            except ValueError:
                canonical = b""
            memo[outcome.payload] = canonical
        checked += 1
        if canonical != expected:
            outcome.failure = "wrong_bytes"
    return checked


# ----------------------------------------------------------------- windows
class Window:
    """Requests measured together, with server-stat deltas over them."""

    GAUGES = ("maxrss_mib", "store_bytes", "inflight_peak")

    def __init__(self) -> None:
        self.records: List[Tuple[gen.Request, Outcome]] = []
        self.wall_s = 0.0
        self.delta: dict = {}
        self.last: dict = {}
        self.inflight_peak = 0

    def absorb(self, before: dict, after: dict) -> None:
        _accumulate(self.delta, before, after, self.GAUGES)
        self.last = after
        if after.get("ledger"):
            self.inflight_peak = max(self.inflight_peak, after["ledger"]["inflight_peak"])

    @property
    def ok(self) -> List[Outcome]:
        return [outcome for _, outcome in self.records if outcome.ok]


def _accumulate(total: dict, before: dict, after: dict, gauges) -> None:
    for key, value in after.items():
        if key in gauges or value is None:
            continue
        if isinstance(value, dict):
            _accumulate(total.setdefault(key, {}), before.get(key) or {}, value, gauges)
        elif isinstance(value, (int, float)):
            total[key] = total.get(key, 0) + value - (before.get(key) or 0)


class Bench:
    """One run of one workload: owns the server, the data and the streams."""

    def __init__(self, workload: str, seed: int, plan: Plan, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.plan = plan
        self.trace = trace
        self.shape = WORKLOADS[workload]
        self.started = time.perf_counter()
        self.work = WORK / f"run-{os.getpid()}"
        self.server: Optional[ServerProcess] = None
        self.data_dir: Optional[Path] = None
        self.setup_times: List[float] = []
        self.warmup_s = 0.0
        self.passes = 0
        self.replay_passes = [0] * self.shape["connections"]
        self.explore = gen.ExploreStream(seed, "timed")
        # Templates the traced half of an explore run repeats, in order, so
        # its mix matches the untraced half it is compared with.
        self.follow: List[Tuple] = []
        # Report keys the server has answered in its current lifetime; a
        # request outside it is a predicted memo miss.
        self.seen: set = set()
        self.sent = 0
        self.predicted_misses = 0

    def time_left(self) -> bool:
        return time.perf_counter() - self.started < self.plan.run_cap_s

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        shutil.rmtree(self.work, ignore_errors=True)

    def note_sent(self, requests: List[gen.Request]) -> None:
        for request in requests:
            if request.key not in self.seen:
                self.predicted_misses += 1
                self.seen.add(request.key)
        self.sent += len(requests)

    # --------------------------------------------------------------- set-up
    def set_up(self) -> None:
        """Generate, write, spawn, answer a first request; repeated, median kept.

        Every repetition starts from nothing: new tables, a new store
        directory, a new server process.  The last one stays up.
        """
        first = gen.paper_request(6)
        spans = None
        if self.trace:
            (WORK / "spans").mkdir(parents=True, exist_ok=True)
            spans = WORK / "spans" / f"{self.workload}-seed{self.seed}.jsonl"
        for repeat in range(self.plan.setup_repeats):
            if self.server is not None:
                self.server.close()
                self.server = None
                shutil.rmtree(self.data_dir)
            last = repeat == self.plan.setup_repeats - 1
            start = time.perf_counter()
            self.data_dir = self.work / f"data-{repeat}"
            write_datasets(self.data_dir)
            self.server = ServerProcess(self.data_dir, self.shape["budget_mib"],
                                        self.work / f"server-{repeat}.log",
                                        spans if last else None)
            client = self.server.client()
            outcome = client.send(first.path, first.body, first.token)
            client.close()
            self.setup_times.append(time.perf_counter() - start)
            if not outcome.ok:
                raise BenchError(f"set-up request failed: {outcome.failure} "
                                 f"(status {outcome.status})")
        self.seen = {first.key}

    def warm_up(self) -> None:
        """The workload's own warm-up, after set-up and before any timing."""
        start = time.perf_counter()
        if self.workload == "explore_warm":
            self._fill_cache()
        elif self.workload == "replay_hot":
            self._send_all(gen.paper30_pass(self.seed, 0), "warm-up")
        self.warmup_s = time.perf_counter() - start

    def _send_all(self, requests: Iterable[gen.Request], what: str,
                  until=None) -> int:
        """Send requests in order until ``until()`` holds; returns the count sent."""
        client = self.server.client()
        count = 0
        try:
            for request in requests:
                outcome = client.send(request.path, request.body, request.token)
                if not outcome.ok:
                    raise BenchError(f"{what} request failed: {outcome.failure} "
                                     f"(status {outcome.status})")
                self.seen.add(request.key)
                count += 1
                if until is not None and until():
                    break
            return count
        finally:
            client.close()

    def _fill_cache(self) -> None:
        """Explore until the 128 MiB cache is full and evicting.

        One block of the warm-up stream visits every template, so each
        one's partitions are cached before the timed window; large filler
        refinements then bring the store to its budget.
        """
        budget = self.shape["budget_mib"] * 2 ** 20
        stream = gen.ExploreStream(self.seed, "warmup", path=gen.PLAIN)
        first = [next(stream) for _ in range(stream.block_size)]
        requests = itertools.islice(itertools.chain(first, stream.fill()),
                                    self.plan.warmup_cap_requests)
        stats = {}

        def full() -> bool:
            stats.update(self.server.stats())
            return stats["evictions"] > 0 or stats["store_bytes"] >= 0.97 * budget

        count = self._send_all(requests, "warm-up", until=full)
        log(f"warm-up: {count} exploration requests, store "
            f"{stats['store_bytes'] / 2 ** 20:.1f} MiB of {self.shape['budget_mib']} MiB, "
            f"{stats['evictions']} evictions")

    # -------------------------------------------------------------- windows
    def measure(self, requests: int) -> Window:
        """One window of at least ``requests`` requests, in whole units."""
        if self.workload == "paper30_cold":
            return self._paper30(requests)
        if self.workload == "explore_warm":
            return self._explore(requests)
        return self._replay(requests)

    def _paper30(self, requests: int) -> Window:
        window = Window()
        while (len(window.records) < requests or self.passes % 2) and self.time_left():
            self.server.reset()
            self.seen = set()
            batch = gen.paper30_pass(self.seed, self.passes)
            self.passes += 1
            self.note_sent(batch)
            client = self.server.client()
            before = self.server.stats()
            start = time.perf_counter()
            for request in batch:
                window.records.append(
                    (request, client.send(request.path, request.body, request.token)))
            window.wall_s += time.perf_counter() - start
            window.absorb(before, self.server.stats())
            client.close()
        return window

    def _explore(self, requests: int) -> Window:
        window = Window()
        client = self.server.client()
        before = self.server.stats()
        start = time.perf_counter()
        cycle = self.explore.block_size * self.plan.explore_cycle_blocks
        while (len(window.records) < requests or len(window.records) % cycle) \
                and self.time_left():
            if self.follow:
                request = self.explore.refine(
                    *self.follow[len(window.records) % len(self.follow)])
            else:
                request = next(self.explore)
            self.note_sent([request])
            window.records.append(
                (request, client.send(request.path, request.body, request.token)))
        window.wall_s = time.perf_counter() - start
        window.absorb(before, self.server.stats())
        client.close()
        return window

    def _replay(self, requests: int) -> Window:
        window = Window()
        lock = threading.Lock()
        errors: List[BaseException] = []
        before = self.server.stats()
        start = time.perf_counter()

        per_pass = len(gen.paper_queries())
        passes = -(-requests // (per_pass * self.shape["connections"]))

        def connection(index: int) -> None:
            client = self.server.client()
            try:
                for _ in range(passes):
                    if not self.time_left():
                        return
                    batch = gen.replay_pass(self.seed, index, self.replay_passes[index])
                    self.replay_passes[index] += 1
                    for request in batch:
                        outcome = client.send(request.path, request.body, request.token)
                        with lock:
                            window.records.append((request, outcome))
                    with lock:
                        self.note_sent(batch)
            except BaseException as error:  # re-raised on the main thread
                errors.append(error)
            finally:
                client.close()

        threads = [threading.Thread(target=connection, args=(index,), daemon=True)
                   for index in range(self.shape["connections"])]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window.wall_s = time.perf_counter() - start
        window.absorb(before, self.server.stats())
        if errors:
            raise errors[0]
        return window

    # ---------------------------------------------------------------- checks
    def checked_requests(self) -> List[gen.Request]:
        if self.workload == "explore_warm":
            prefix = gen.explore_prefix(self.seed, "timed", self.explore.block_size)
            return [prefix[position] for position in self._checked_positions()]
        return [gen.paper_request(number) for number, *_ in gen.paper_queries()]

    def _checked_positions(self) -> List[int]:
        return gen.checked_positions(self.seed, self.explore.block_size,
                                     self.plan.explore_checked)

    def verify(self, windows: List[Window], refs: Dict[bytes, bytes]) -> int:
        records = [record for window in windows for record in window.records]
        if self.workload != "explore_warm":
            return check(records, refs)
        chosen = [records[position] for position in self._checked_positions()
                  if position < len(records)]
        checked = check(chosen, refs)
        # The streamed final report must equal the plain endpoint's document.
        client = self.server.client()
        try:
            for request, outcome in chosen:
                if not outcome.ok:
                    continue
                plain = client.send(gen.PLAIN, request.body, request.token)
                if not plain.ok or canonical_payload(plain.payload) != \
                        canonical_payload(outcome.payload):
                    outcome.failure = "wrong_bytes"
        finally:
            client.close()
        return checked


# ----------------------------------------------------------------- metrics
def end_to_end(bench: Bench, windows: List[Window]) -> Dict[str, float]:
    ok = [outcome for window in windows for outcome in window.ok]
    if not ok:
        raise BenchError("no request succeeded")
    latencies = [outcome.latency_s * 1e3 for outcome in ok]
    tail = tail_percentile(latencies, 90)
    cpu_s = sum(window.delta.get("cpu_s", 0.0) for window in windows)
    return {
        "setup_s": median(bench.setup_times),
        "latency_p50_ms": median(latencies),
        "latency_p90_ms": tail[1] if tail else max(latencies),
        "explains_per_s": len(ok) / sum(window.wall_s for window in windows),
        "first_event_ms": median([outcome.first_event_s * 1e3 for outcome in ok]),
        "server_cpu_ms_per_explain": cpu_s * 1e3 / len(ok),
        "server_rss_peak_mib": windows[-1].last["maxrss_mib"],
    }


def per_layer(bench: Bench, traced: Window, overhead_ms: float) -> Dict[str, float]:
    explains = max(len(traced.ok), 1)
    ledger = traced.delta.get("ledger", {})
    busy = ledger.get("busy_s", {})
    calls = ledger.get("calls", {})
    counts = ledger.get("counts", {})
    session = traced.delta.get("session", {})

    def ms(name: str) -> float:
        return busy.get(name, 0.0) * 1e3 / explains

    def per(value: float) -> float:
        return value / explains

    def ratio(layer: str) -> Tuple[float, float]:
        hits = session.get(f"{layer}_hits", 0)
        lookups = hits + session.get(f"{layer}_misses", 0)
        return (hits / lookups if lookups else 0.0), per(lookups)

    request_s = ledger.get("request_s", 0.0)
    covered_s = ledger.get("covered_s", 0.0)
    metrics = {
        "serving.request_ms": request_s * 1e3 / explains,
        "serving.auth_ms": ms("serving.auth"),
        "serving.serialize_ms": ms("serving.serialize"),
        "serving.response_bytes": per(counts.get("serving.response_bytes", 0.0)),
        "serving.stream_events": per(counts.get("serving.stream_events", 0.0)),
        "serving.unattributed_ms": (request_s - covered_s) * 1e3 / explains,
        "trace.coverage": covered_s / request_s if request_s else 0.0,
        "trace.overhead_p50_ms": overhead_ms,
        "protocol.parse_ms": ms("protocol.parse"),
        "operators.parse_query_ms": ms("operators.parse_query"),
        "operators.apply_ms": ms("operators.apply"),
        "operators.apply_calls": per(calls.get("operators.apply", 0)),
        "service.admission_wait_ms": ms("service.admission_wait"),
        "service.queue_wait_ms": ms("service.queue_wait"),
        "service.inflight_peak": float(traced.inflight_peak),
        "session.explain_self_ms": ms("session.explain") - ms("core.explain"),
        "session.adopt_step_ms": ms("session.adopt_step"),
        "session.cache_put_ms": ms("session.cache_put"),
        "session.cache_puts": per(calls.get("session.cache_put", 0)),
        "session.measured_bytes_ms": ms("session.measured_bytes"),
        "session.cache_get_ms": ms("session.cache_get"),
        "session.cache_gets": per(calls.get("session.cache_get", 0)),
        "session.store_mib": traced.last["store_bytes"] / 2 ** 20,
        "session.evictions": per(traced.delta.get("evictions", 0)),
        "storage.open_ms": ms("storage.open"),
        "storage.open_calls": per(calls.get("storage.open", 0)),
        "core.explain_ms": ms("core.explain"),
        "core.phase2_share": busy.get("core.phase2", 0.0) / request_s if request_s else 0.0,
        "core.partition.frequency_ms": ms("core.partition.frequency"),
        "core.partition.binning_ms": ms("core.partition.binning"),
        "core.partition.many_to_one_ms": ms("core.partition.many_to_one"),
        "core.partition.validate_ms": ms("core.partition.validate"),
        "core.partition.find_companions_ms": ms("core.partition.find_companions"),
        "core.partition.find_companions_calls":
            per(calls.get("core.partition.find_companions", 0)),
        "core.partitions": per(counts.get("core.partitions", 0.0)),
        "core.grid_pairs": per(calls.get("core.grid_pair", 0)),
        "core.candidates": per(counts.get("core.candidates", 0.0)),
        "dataframe.sample_ms": ms("dataframe.sample"),
        "dataframe.factorize_ms": ms("dataframe.factorize"),
        "dataframe.sorted_order_ms": ms("dataframe.sorted_order"),
        "dataframe.fingerprint_full_hashes":
            per(traced.delta.get("fingerprint_full_hashes", 0)),
        "setup.warmup_s": bench.warmup_s,
    }
    for phase in range(1, 6):
        metrics[f"core.phase{phase}_ms"] = ms(f"core.phase{phase}")
    for layer in ("report", "partition", "structure"):
        metrics[f"session.{layer}_hit_ratio"], metrics[f"session.{layer}_lookups"] = \
            ratio(layer)
    return metrics


def describe(bench: Bench, windows: List[Window], metrics: Dict[str, float]) -> None:
    """Human-readable summary: mix, sample counts, percentile used, failures."""
    records = [record for window in windows for record in window.records]
    ok = [outcome for _, outcome in records if outcome.ok]
    mix = gen.request_mix([request for request, _ in records])
    session = {}
    for window in windows:
        for key, value in window.delta.get("session", {}).items():
            session[key] = session.get(key, 0) + value
    lookups = session.get("report_hits", 0) + session.get("report_misses", 0)
    measured = session.get("report_misses", 0) / lookups if lookups else 0.0
    predicted = bench.predicted_misses / bench.sent if bench.sent else 0.0
    log(f"{bench.workload} seed {bench.seed}: {len(records)} requests in "
        f"{sum(window.wall_s for window in windows):.2f} s, "
        f"{bench.shape['connections']} connection(s), closed loop")
    log(f"request mix: {mix['by_kind_dataset']}; distinct report keys "
        f"{mix['distinct_report_keys']}; memo-miss share predicted {predicted:.3f}, "
        f"measured {measured:.3f}")
    latencies = [outcome.latency_s * 1e3 for outcome in ok]
    tail = tail_percentile(latencies, 90)
    if tail:
        log(f"latency: p50 over n={len(latencies)}; p{tail[0]} with {tail[2]} "
            f"samples beyond it")
    else:
        log(f"latency: n={len(latencies)} supports no tail percentile; max reported")
    log(failure_summary([outcome for _, outcome in records]))
    for name, value in metrics.items():
        log(f"  {name:40s} {value:14.4f} {END_TO_END.get(name) or PER_LAYER.get(name)}")


def ledger_table(metrics: Dict[str, float]) -> None:
    """Per-explain busy time of each timed layer, largest first."""
    timed = sorted(((value, name) for name, value in metrics.items()
                    if name.endswith("_ms") and name not in (
                        "serving.request_ms", "trace.overhead_p50_ms", "core.explain_ms")),
                   reverse=True)
    base = metrics["serving.request_ms"] or 1.0
    log(f"ledger (ms per explain, share of {base:.2f} ms server request time):")
    for value, name in timed[:14]:
        log(f"  {name:40s} {value:10.3f}  {value / base:6.1%}")


# --------------------------------------------------------------------- run
def run(workload: str, seed: int, seconds: float, trace: bool, plan: Plan = FULL) -> dict:
    bench = Bench(workload, seed, plan, trace)
    try:
        bench.set_up()
        bench.warm_up()
        refs = references(bench.data_dir, bench.checked_requests())
        if trace:
            half = plan.requests(workload, seconds / 2, traced_half=True)
            untraced = bench.measure(half)
            bench.server.command("trace")
            bench.follow = [request.template for request, _ in untraced.records]
            traced = bench.measure(half)
            windows = [untraced, traced]
        else:
            windows = [bench.measure(plan.requests(workload, seconds, traced_half=False))]
        checks = bench.verify(windows, refs)
        records = [outcome for window in windows for _, outcome in window.records]
        failed = sum(failure_counts(records).values())
        if trace:
            overhead = (median([o.latency_s * 1e3 for o in traced.ok])
                        - median([o.latency_s * 1e3 for o in untraced.ok]))
            metrics = per_layer(bench, traced, overhead)
            units = PER_LAYER
        else:
            metrics = end_to_end(bench, windows)
            units = END_TO_END
        describe(bench, windows, metrics)
        if trace:
            ledger_table(metrics)
        log(f"checked {checks} responses against in-process references; "
            f"set-up times {', '.join(f'{value:.3f}' for value in bench.setup_times)} s")
        return {
            "correct": failed == 0 and checks > 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }
    finally:
        bench.close()


def smoke(seed: int) -> int:
    """Every workload, briefly and traced; exit status 0 only if all are correct."""
    status = 0
    for workload in WORKLOADS:
        result = run(workload, seed, 1.0, True, SMOKE)
        log(json.dumps(result))
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="HTTP explain benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        default="paper30_cold",
                        help="'all' runs every workload in turn, one JSON line each")
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly, traced, and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.smoke:
        return smoke(args.seed)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        result = run(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    for _key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[_key]
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main())
