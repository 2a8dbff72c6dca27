"""Backend equivalence + runtime over the full 30-query evaluation workload.

The acceptance bar of the backend layer: on every workload query the
incremental backend must reproduce the exact rerun backend — identical
skyline keys and candidate pools, contribution scores within ``1e-9`` —
while spending less wall-clock time in the contribution phase.  Prints a
per-query comparison table with the per-backend contribution-phase timings
and the speedup.

The storage layer's acceptance bar rides in the same harness: every query
re-run against tables opened from a :class:`~repro.storage.DatasetStore`
(mmap-backed frames with persisted fingerprints) must produce **bit-identical**
reports — identical skylines, score deltas of exactly zero — versus the
in-memory frames.

The process backend has two passes of its own: the 30 queries over
*in-memory* tables (spilled to the content-addressed temp store and shipped
to the workers as mmap descriptors — ``spill_bytes=0`` forces every input
through the spill path) and over *store-backed* tables (descriptors minted
straight off the dataset store, no spill); both must match the serial
incremental backend — identical skylines, scores within ``1e-9``.  The
in-memory pass runs at every shard batch size in {1, 3, automatic}.

The process worker count defaults to 2 and can be overridden with the
``REPRO_WORKERS`` environment variable (the CI matrix runs this suite with
``REPRO_WORKERS=4`` on one job).
"""

from __future__ import annotations

import os

import pytest
from conftest import run_once, scale_sizes

from repro.core import FedexConfig, FedexExplainer
from repro.datasets import DatasetRegistry
from repro.experiments import print_table
from repro.storage import DatasetStore
from repro.workloads import WORKLOAD


def _workers() -> int:
    return int(os.environ.get("REPRO_WORKERS", "2"))


def _scores(report):
    return {
        c.key(): (c.contribution, c.standardized_contribution)
        for c in report.all_candidates
    }


def _max_delta(reference, other):
    """Max absolute score difference, inf when the candidate pools differ."""
    if set(reference) != set(other):
        return float("inf")
    deltas = [
        max(abs(raw - other[key][0]), abs(std - other[key][1]))
        for key, (raw, std) in reference.items()
    ]
    return max(deltas, default=0.0)


def _compare_backends(registry):
    rows = []
    for query in WORKLOAD:
        step = query.build_step(registry)
        exact = FedexExplainer(FedexConfig(backend="exact", seed=0)).explain(step)
        incremental = FedexExplainer(FedexConfig(backend="incremental", seed=0)).explain(step)
        rows.append({
            "query": query.number,
            "dataset": query.dataset,
            "kind": query.kind,
            "skyline_equal": exact.skyline_keys() == incremental.skyline_keys(),
            "max_score_delta": _max_delta(_scores(exact), _scores(incremental)),
            "exact_s": exact.timings.get("contribution", 0.0),
            "incremental_s": incremental.timings.get("contribution", 0.0),
        })
    for row in rows:
        row["speedup"] = row["exact_s"] / max(row["incremental_s"], 1e-9)
    return rows


def test_backend_equivalence_over_workload(benchmark, bench_registry):
    rows = run_once(benchmark, _compare_backends, bench_registry)
    print_table(rows, title="Exact vs incremental over the 30-query workload")
    assert len(rows) == 30
    mismatched = [row["query"] for row in rows if not row["skyline_equal"]]
    assert not mismatched, f"queries with diverging skylines: {mismatched}"
    drifted = [row["query"] for row in rows if not row["max_score_delta"] <= 1e-9]
    assert not drifted, f"queries with score drift above 1e-9: {drifted}"
    # The incremental backend should win in aggregate (per-query timings can
    # be noisy for the smallest steps, the total must not be).
    total_exact = sum(row["exact_s"] for row in rows)
    total_incremental = sum(row["incremental_s"] for row in rows)
    assert total_incremental < total_exact, (
        f"incremental contribution phase slower in aggregate: "
        f"{total_incremental:.2f}s vs {total_exact:.2f}s"
    )


def _compare_store_backed(memory_registry, store_registry):
    rows = []
    for query in WORKLOAD:
        config = FedexConfig(seed=0)
        memory = FedexExplainer(config).explain(query.build_step(memory_registry))
        stored = FedexExplainer(config).explain(query.build_step(store_registry))
        rows.append({
            "query": query.number,
            "dataset": query.dataset,
            "kind": query.kind,
            "skyline_equal": memory.skyline_keys() == stored.skyline_keys(),
            "max_score_delta": _max_delta(_scores(memory), _scores(stored)),
        })
    return rows


def test_store_backed_equivalence_over_workload(benchmark, bench_registry,
                                                tmp_path_factory):
    """All 30 queries are bit-identical on DatasetStore-opened (mmap) frames."""
    store = DatasetStore(tmp_path_factory.mktemp("equivalence-store"))
    store_registry = DatasetRegistry(seed=0, store=store, **scale_sizes())
    rows = run_once(benchmark, _compare_store_backed, bench_registry, store_registry)
    print_table(rows, title="In-memory vs DatasetStore-backed over the 30-query workload")
    assert len(rows) == 30
    mismatched = [row["query"] for row in rows if not row["skyline_equal"]]
    assert not mismatched, f"queries with diverging skylines: {mismatched}"
    # Bit-identical is the bar: same values in, same floats out — zero delta.
    drifted = [row["query"] for row in rows if row["max_score_delta"] != 0.0]
    assert not drifted, f"queries with non-identical scores: {drifted}"


#: Serial reference reports per registry identity — the process pass runs
#: once per shard_batch setting, the incremental reference need only run once.
_INCREMENTAL_MEMO: dict = {}


def _incremental_reference(registry, query):
    memo = _INCREMENTAL_MEMO.setdefault(id(registry), {})
    report = memo.get(query.number)
    if report is None:
        report = FedexExplainer(FedexConfig(backend="incremental", seed=0)).explain(
            query.build_step(registry)
        )
        memo[query.number] = report
    return report


def _compare_process(registry, spill_bytes, shard_batch=None):
    from repro.core.backends.process import PROCESS_STATS

    PROCESS_STATS.reset()
    process_config = FedexConfig(
        backend="process", workers=_workers(), spill_bytes=spill_bytes,
        shard_batch=shard_batch, seed=0,
    )
    rows = []
    for query in WORKLOAD:
        step = query.build_step(registry)
        incremental = _incremental_reference(registry, query)
        process = FedexExplainer(process_config).explain(step)
        rows.append({
            "query": query.number,
            "dataset": query.dataset,
            "kind": query.kind,
            "skyline_equal": incremental.skyline_keys() == process.skyline_keys(),
            "max_score_delta": _max_delta(_scores(incremental), _scores(process)),
            "incremental_s": incremental.timings.get("contribution", 0.0),
            "process_s": process.timings.get("contribution", 0.0),
        })
    return rows, PROCESS_STATS.as_dict()


def _assert_process_rows(rows, stats) -> None:
    assert len(rows) == 30
    mismatched = [row["query"] for row in rows if not row["skyline_equal"]]
    assert not mismatched, f"queries where process skylines diverge: {mismatched}"
    drifted = [row["query"] for row in rows if not row["max_score_delta"] <= 1e-9]
    assert not drifted, f"queries with process score drift above 1e-9: {drifted}"
    # The pass must not be vacuous: a regression that silently downgraded
    # every request to the serial fallback would compare incremental with
    # itself.  Shards must really have crossed processes, none retried.
    assert stats["shards_completed"] > 0, f"process path never ran: {stats}"
    assert stats["shards_completed"] == stats["shards_submitted"], stats
    assert stats["serial_retries"] == 0, f"workers failed mid-workload: {stats}"


@pytest.mark.parametrize("shard_batch", [1, 3, None],
                         ids=["batch1", "batch3", "auto"])
def test_process_backend_equivalence_in_memory(benchmark, bench_registry, shard_batch):
    """Process == incremental on all 30 queries over in-memory (spilled) frames.

    Parametrized over the shard-batch setting: per-pair dispatch (the
    pre-batching behaviour), a forced tiny batch, and the automatic policy
    all have to produce the same skylines and scores — batching is a
    dispatch optimisation, never an observable.
    """
    rows, stats = run_once(benchmark, _compare_process, bench_registry, 0,
                           shard_batch=shard_batch)
    print_table(rows, title=(
        f"Incremental vs process ({_workers()} workers, spilled in-memory frames, "
        f"shard_batch={shard_batch}) over the 30-query workload — "
        f"{stats['shards_completed']} shards in {stats['batches_submitted']} batches"
    ))
    _assert_process_rows(rows, stats)
    # Batch accounting: pairs per batch can never undercount, and a forced
    # batch of 3 must genuinely amortize (fewer submissions than pairs).
    assert stats["batches_submitted"] <= stats["shards_submitted"], stats
    if shard_batch == 1:
        assert stats["batches_submitted"] == stats["shards_submitted"], stats
    else:
        assert stats["batches_submitted"] < stats["shards_submitted"], stats


def _compare_traced(registry, dump_path):
    from repro.obs.trace import read_traces, tracing

    rows = []
    config = FedexConfig(seed=0)
    for query in WORKLOAD:
        step = query.build_step(registry)
        with tracing(False):
            untraced = FedexExplainer(config).explain(step)
        with tracing(True):
            traced = FedexExplainer(config).explain(step)
        trace = traced.trace
        names = set(trace.span_names()) if trace is not None else set()
        rows.append({
            "query": query.number,
            "dataset": query.dataset,
            "kind": query.kind,
            "skyline_equal": untraced.skyline_keys() == traced.skyline_keys(),
            "max_score_delta": _max_delta(_scores(untraced), _scores(traced)),
            "has_trace": trace is not None,
            "phases_traced": {
                "phase1.interestingness", "phase2.partitioning",
                "phase3.contribution",
            } <= names,
        })
    dumped = read_traces(dump_path) if os.path.exists(dump_path) else []
    return rows, dumped


def test_traced_equivalence_over_workload(benchmark, bench_registry,
                                          tmp_path_factory, monkeypatch):
    """Tracing is an observer: all 30 queries bit-identical traced vs untraced.

    The untraced side runs under ``tracing(False)`` so the comparison stays
    meaningful even when the harness itself exports ``REPRO_TRACE`` (the CI
    observability job does); the traced side dumps every trace to a JSONL
    file, which must load back with one well-formed trace per query.
    """
    dump = str(tmp_path_factory.mktemp("traces") / "workload.jsonl")
    monkeypatch.setenv("REPRO_TRACE", dump)
    rows, dumped = run_once(benchmark, _compare_traced, bench_registry, dump)
    print_table(rows, title="Untraced vs traced over the 30-query workload")
    assert len(rows) == 30
    mismatched = [row["query"] for row in rows if not row["skyline_equal"]]
    assert not mismatched, f"queries where traced skylines diverge: {mismatched}"
    # Bit-identical is the bar: tracing must never perturb a float.
    drifted = [row["query"] for row in rows if row["max_score_delta"] != 0.0]
    assert not drifted, f"queries where tracing changed scores: {drifted}"
    untrace = [row["query"] for row in rows if not row["has_trace"]]
    assert not untrace, f"queries whose traced run carried no trace: {untrace}"
    unphased = [row["query"] for row in rows if not row["phases_traced"]]
    assert not unphased, f"queries missing phase spans: {unphased}"
    # The env dump round-trips: one trace per traced explain, phases intact.
    assert len(dumped) == 30, f"JSONL dump holds {len(dumped)} traces, want 30"
    assert all(trace.find("explain") for trace in dumped)


def test_process_backend_equivalence_store_backed(benchmark, tmp_path_factory):
    """Process == incremental on all 30 queries over DatasetStore-backed frames.

    The stored base tables cross as descriptors minted straight off the
    store — no spill; queries over *derived* inputs (filtered/unioned
    frames, which are plain in-memory frames again) follow the spill
    policy, which at the default threshold can keep the smallest ones
    serial by design.
    """
    store = DatasetStore(tmp_path_factory.mktemp("process-store"))
    store_registry = DatasetRegistry(seed=0, store=store, **scale_sizes())
    rows, stats = run_once(benchmark, _compare_process, store_registry, None)
    print_table(rows, title=(
        f"Incremental vs process ({_workers()} workers, store-backed frames) "
        f"over the 30-query workload — {stats['shards_completed']} shards crossed "
        "processes"
    ))
    _assert_process_rows(rows, stats)


def _compare_exported(registry, sink_path):
    from repro.obs.export import (
        SpanExporter,
        install_span_exporter,
        uninstall_span_exporter,
    )
    from repro.obs.trace import tracing

    rows = []
    config = FedexConfig(seed=0)
    exporter = SpanExporter(sink_path)
    install_span_exporter(exporter, key="equivalence-bench")
    try:
        for query in WORKLOAD:
            step = query.build_step(registry)
            with tracing(False):
                plain = FedexExplainer(config).explain(step)
            with tracing(True):
                exported = FedexExplainer(config).explain(step)
            rows.append({
                "query": query.number,
                "dataset": query.dataset,
                "kind": query.kind,
                "skyline_equal": plain.skyline_keys() == exported.skyline_keys(),
                "max_score_delta": _max_delta(_scores(plain), _scores(exported)),
            })
        drained = exporter.flush(30.0)
    finally:
        uninstall_span_exporter("equivalence-bench")
        exporter.close()
    return rows, exporter.stats(), drained


def test_exported_equivalence_over_workload(benchmark, bench_registry,
                                            tmp_path_factory):
    """The exporter is an observer too: export-on == export-off, bit-identical.

    Every traced query ships its span tree through a real
    :class:`~repro.obs.export.SpanExporter` into an OTLP/JSON file sink
    while the scores are compared against an export-off run — and the sink
    must end up holding all 30 root spans, none dropped.
    """
    import json

    sink = str(tmp_path_factory.mktemp("otlp") / "spans.jsonl")
    rows, stats, drained = run_once(benchmark, _compare_exported,
                                    bench_registry, sink)
    print_table(rows, title="Export-off vs export-on over the 30-query workload")
    assert len(rows) == 30
    mismatched = [row["query"] for row in rows if not row["skyline_equal"]]
    assert not mismatched, f"queries where exported skylines diverge: {mismatched}"
    # Bit-identical is the bar: shipping spans must never perturb a float.
    drifted = [row["query"] for row in rows if row["max_score_delta"] != 0.0]
    assert not drifted, f"queries where exporting changed scores: {drifted}"
    # Nothing dropped, everything arrived: 30 "explain" roots in the sink.
    assert drained, f"exporter failed to drain: {stats}"
    assert stats["dropped"] == 0, stats
    assert stats["enqueued"] == stats["exported"] == 30, stats
    roots = 0
    with open(sink, encoding="utf-8") as handle:
        for line in handle:
            payload = json.loads(line)
            for entry in payload["resourceSpans"]:
                for scope in entry["scopeSpans"]:
                    roots += sum(1 for span in scope["spans"]
                                 if span["name"] == "explain")
    assert roots == 30, f"sink holds {roots} explain roots, want 30"
