"""Micro-benchmark: exact vs incremental contribution backends.

Runs the contribution phase of representative steps with both backends and
prints the timings plus the speedup, so future PRs can track the gain::

    PYTHONPATH=src python benchmarks/bench_backends.py [n_rows]

The headline number is the contribution phase of a 10k-row group-by step,
where the incremental backend must be at least ~3x faster than the rerun
backend; filter/join/union steps are reported alongside.

A second section races the ``process`` pool backend against the serial
``incremental`` backend on a *Python-heavy* shard mix: the exceptionality
measure over a group-by step has no incremental plan, so every shard
re-runs the aggregation per set-of-rows, which is exactly the
byte-code-bound work a process pool can spread over cores.  The bar: the
process pool must be at least 1.3x faster than serial (``REPRO_WORKERS``
workers, 4 by default).  The bar is waived (with an explanation, not a
silent pass) on machines with fewer cores than workers, where the pool
cannot fan out.

A third section measures what shard batching buys on the *wide-grid* mix —
many small partitions, tiny per-shard compute, so per-pair IPC dominates:
the process backend with automatic batching must be at least 1.3x faster
than its own per-pair (``shard_batch=1``) dispatch, which is exactly how
the backend submitted before batching existed.

Every run's timings and ratios are appended to ``BENCH_backends.json``
through :mod:`perf_record`, so the trajectory is comparable across PRs.
"""

from __future__ import annotations

import os
import sys
import time

import perf_record

from repro.core import FedexConfig, FedexExplainer, shutdown_process_pools
from repro.core.backends.process import PROCESS_STATS
from repro.dataframe import Comparison
from repro.datasets import load_spotify
from repro.datasets.products import load_products_and_sales
from repro.operators import ExploratoryStep, Filter, GroupBy, Join, Union

#: Process-over-serial acceptance bar on the Python-heavy shard mix.
POOL_SPEEDUP_BAR = 1.3

#: Batched-over-unbatched acceptance bar on the wide-grid mix: automatic
#: shard batching vs this backend's own per-pair dispatch (the pre-batching
#: baseline).
BATCH_SPEEDUP_BAR = 1.3

#: Disabled-tracing overhead bar: the no-op instrumentation reachable from
#: one explain must cost under this fraction of the contribution phase.
TRACING_OVERHEAD_BAR = 0.02

#: Enabled-exporter overhead bar: shipping one finished trace costs the
#: explain path a single wait-free enqueue, which must stay under this
#: fraction of the contribution phase (conversion and delivery run on the
#: exporter's own thread).
EXPORT_OVERHEAD_BAR = 0.02


def _steps(n_rows: int):
    spotify = load_spotify(n_rows, seed=3)
    products, sales = load_products_and_sales(
        n_sales=n_rows, n_products=max(n_rows // 10, 100), seed=29
    )
    yield "groupby", ExploratoryStep([spotify], GroupBy(
        "decade",
        {"loudness": ["mean"], "popularity": ["mean", "max", "min", "sum"]},
        include_count=True,
    ))
    yield "filter", ExploratoryStep([spotify], Filter(Comparison("popularity", ">", 65)))
    yield "join", ExploratoryStep([products, sales], Join("item"))
    yield "union", ExploratoryStep([
        spotify.filter(Comparison("year", "<", 1990)),
        spotify.filter(Comparison("year", ">=", 1990)),
    ], Union())


def run(n_rows: int = 10_000) -> list:
    print(f"contribution-phase timings on {n_rows:,}-row steps "
          f"(seconds, best-of-1, python {sys.version.split()[0]})")
    print(f"{'step':10s} {'exact':>10s} {'incremental':>12s} {'speedup':>9s}")
    results = []
    for name, step in _steps(n_rows):
        timings = {}
        for backend in ("exact", "incremental"):
            report = FedexExplainer(FedexConfig(backend=backend, seed=0)).explain(step)
            timings[backend] = report.timings["contribution"]
        speedup = timings["exact"] / max(timings["incremental"], 1e-9)
        results.append((name, timings["exact"], timings["incremental"], speedup))
        print(f"{name:10s} {timings['exact']:10.3f} {timings['incremental']:12.3f} "
              f"{speedup:8.1f}x")
    return results


def _pool_bar_waiver(workers: int) -> str | None:
    """Why the process-pool bars cannot be enforced here, or ``None``."""
    cores = os.cpu_count() or 1
    if cores < workers:
        return (f"host has {cores} CPU core(s) for {workers} workers: the "
                "pool cannot fan out, the comparison measures only overhead")
    return None


def run_pool_comparison(n_rows: int = 20_000, workers: int = 4):
    """Serial incremental vs the process pool on the Python-heavy shard mix.

    The step is a group-by explained with the *exceptionality* measure: no
    incremental plan exists for that combination, so every shard of the
    partition × attribute grid re-runs the aggregation per set-of-rows —
    python-bytecode-heavy work that the serial backend runs on one core
    and the process pool spreads over ``workers``.  ``spill_bytes=0`` ships
    the input to the workers through the content-addressed spill store.
    """
    spotify = load_spotify(n_rows, seed=3)
    step = ExploratoryStep([spotify], GroupBy(
        "decade", {"popularity": ["mean"], "loudness": ["mean"]}, include_count=True,
    ))
    shared = dict(partition_source="all", set_counts=(5,), seed=0)
    configs = {
        "serial": FedexConfig(backend="incremental", **shared),
        "process": FedexConfig(backend="process", workers=workers, spill_bytes=0, **shared),
    }
    timings = {}
    for name, config in configs.items():
        # Warm-up run pays the one-time costs (worker start-up, spill)
        # outside the measured pass.
        FedexExplainer(config).explain(step, measure="exceptionality")
        report = FedexExplainer(config).explain(step, measure="exceptionality")
        timings[name] = report.timings["contribution"]
    speedup = timings["serial"] / max(timings["process"], 1e-9)
    print(f"\npool comparison on the python-heavy shard mix "
          f"({n_rows:,}-row group-by, exceptionality, {workers} workers)")
    print(f"{'backend':10s} {'contribution_s':>15s}")
    for name in ("serial", "process"):
        print(f"{name:10s} {timings[name]:15.3f}")
    print(f"process speedup over serial: {speedup:.2f}x")
    return {"workers": workers, "n_rows": n_rows,
            "serial_s": timings["serial"], "process_s": timings["process"],
            "speedup": speedup}


def run_batching_comparison(n_rows: int = 4_000, workers: int = 4):
    """Batched vs per-pair process dispatch on the wide-grid mix.

    The step is a filter explained with ``partition_source="all"`` — every
    input attribute partitioned by every method, so the contribution grid
    is wide and each shard (KS by counts over a few thousand rows) is cheap.
    ``shard_batch=1`` reproduces the backend's pre-batching behaviour (one
    pickle/submit/result round-trip per pair, the PR-5 baseline);
    ``shard_batch=None`` is the automatic batching policy.  Both runs
    produce bit-identical reports; only the dispatch overhead differs.
    """
    spotify = load_spotify(n_rows, seed=3)
    step = ExploratoryStep([spotify], Filter(Comparison("popularity", ">", 65)))
    shared = dict(backend="process", workers=workers, spill_bytes=0,
                  partition_source="all", set_counts=(5, 10), seed=0)
    timings = {}
    dispatch = {}
    for name, shard_batch in (("unbatched", 1), ("batched", None)):
        config = FedexConfig(shard_batch=shard_batch, **shared)
        # Warm-up pays worker start-up and the spill outside the measurement.
        FedexExplainer(config).explain(step, measure="exceptionality")
        PROCESS_STATS.reset()
        report = FedexExplainer(config).explain(step, measure="exceptionality")
        timings[name] = report.timings["contribution"]
        dispatch[name] = {"shards": PROCESS_STATS.shards_submitted,
                          "batches": PROCESS_STATS.batches_submitted}
    speedup = timings["unbatched"] / max(timings["batched"], 1e-9)
    print(f"\nshard batching on the wide-grid mix ({n_rows:,}-row filter, "
          f"partition_source=all, {workers} workers, "
          f"{dispatch['batched']['shards']} grid pairs)")
    print(f"{'dispatch':10s} {'contribution_s':>15s} {'submits':>9s}")
    for name in ("unbatched", "batched"):
        print(f"{name:10s} {timings[name]:15.3f} {dispatch[name]['batches']:9d}")
    print(f"batched speedup over per-pair dispatch: {speedup:.2f}x")
    return {"workers": workers, "n_rows": n_rows,
            "grid_pairs": dispatch["batched"]["shards"],
            "unbatched_s": timings["unbatched"],
            "unbatched_submits": dispatch["unbatched"]["batches"],
            "batched_s": timings["batched"],
            "batched_submits": dispatch["batched"]["batches"],
            "speedup": speedup}


def run_tracing_overhead(n_rows: int = 10_000):
    """Bound what *disabled* tracing costs the contribution phase.

    Run-to-run noise on one explain dwarfs a sub-2% effect, so the bound is
    built deterministically instead of differenced: one traced explain
    counts how many span and event call sites a request actually reaches,
    a tight microbenchmark prices the disabled-path primitives (one
    context-var read plus a no-op span or an ``enabled`` check), and the
    product is compared against the untraced contribution time.  The
    microbenchmark overstates the real cost — the hot call sites check
    ``tracer.enabled`` once and skip the span machinery entirely — so a
    pass here is conservative.
    """
    from repro.obs.trace import current_tracer, tracing

    spotify = load_spotify(n_rows, seed=3)
    step = ExploratoryStep([spotify], Filter(Comparison("popularity", ">", 65)))
    config = FedexConfig(seed=0)
    with tracing(False):
        FedexExplainer(config).explain(step)  # warm-up
        untraced = FedexExplainer(config).explain(step)
    untraced_s = untraced.timings["contribution"]
    with tracing(True):
        traced = FedexExplainer(config).explain(step)
    spans = [span for span in traced.trace.spans if not span.is_event]
    events = sum(span.attrs["count"] for span in traced.trace.spans
                 if span.is_event)

    iterations = 100_000
    start = time.perf_counter()
    for _ in range(iterations):
        with current_tracer().span("probe"):
            pass
    span_cost = (time.perf_counter() - start) / iterations
    start = time.perf_counter()
    for _ in range(iterations):
        tracer = current_tracer()
        if tracer.enabled:
            tracer.event("probe")
    event_cost = (time.perf_counter() - start) / iterations

    overhead_s = len(spans) * span_cost + events * event_cost
    fraction = overhead_s / max(untraced_s, 1e-9)
    print(f"\ndisabled-tracing overhead bound ({n_rows:,}-row filter)")
    print(f"call sites reached: {len(spans)} spans, {events} event occurrences")
    print(f"no-op costs: span {span_cost * 1e9:.0f}ns, check {event_cost * 1e9:.0f}ns")
    print(f"bound: {overhead_s * 1e6:.1f}us over a {untraced_s * 1e3:.1f}ms "
          f"contribution phase = {fraction * 100:.3f}%")

    # Exporter-enabled bound, built the same deterministic way: with a span
    # exporter installed the explain path pays exactly one wait-free
    # ``submit`` per finished trace (OTLP conversion and sink delivery run
    # on the exporter's worker thread), so the bound is the priced enqueue
    # against the same untraced contribution time.  The microbenchmark
    # reuses this run's real span tree so queue items are true-to-size.
    from repro.obs.export import SpanExporter

    export_iters = 20_000
    exporter = SpanExporter(lambda payload: None, queue_max=export_iters + 1,
                            batch_max=512, flush_interval_s=0.01)
    try:
        start = time.perf_counter()
        for _ in range(export_iters):
            exporter.export(traced.trace)
        submit_cost = (time.perf_counter() - start) / export_iters
        exporter.flush(30.0)
        dropped = exporter.stats()["dropped"]
    finally:
        exporter.close()
    export_fraction = submit_cost / max(untraced_s, 1e-9)
    export_headroom = EXPORT_OVERHEAD_BAR / max(export_fraction, 1e-12)
    print(f"exporter-enabled overhead bound: submit {submit_cost * 1e9:.0f}ns "
          f"per request = {export_fraction * 100:.4f}% of the contribution "
          f"phase ({export_headroom:.0f}x headroom under the "
          f"{EXPORT_OVERHEAD_BAR * 100:.0f}% bar, {dropped} dropped)")

    return {"n_rows": n_rows, "span_sites": len(spans), "event_occurrences": events,
            "noop_span_s": span_cost, "noop_check_s": event_cost,
            "untraced_contribution_s": untraced_s,
            "overhead_fraction": fraction,
            "export_submit_s": submit_cost,
            "export_overhead_fraction": export_fraction,
            "export_headroom_speedup": export_headroom}


def main() -> int:
    if len(sys.argv) > 1:
        try:
            n_rows = int(sys.argv[1])
        except ValueError:
            print(f"usage: bench_backends.py [n_rows]; got {sys.argv[1]!r}")
            return 2
    else:
        n_rows = 10_000
    results = run(n_rows)
    status = 0
    groupby_speedup = next(speedup for name, _, _, speedup in results if name == "groupby")
    if groupby_speedup < 3.0:
        print(f"WARNING: group-by contribution speedup {groupby_speedup:.1f}x is below the "
              f"3x acceptance bar")
        status = 1
    pool_workers = int(os.environ.get("REPRO_WORKERS", "4"))
    pool = run_pool_comparison(workers=pool_workers)
    waiver = _pool_bar_waiver(pool_workers)
    pool["waiver"] = waiver
    if waiver is not None:
        print(f"WAIVED: process-over-serial bar not enforced — {waiver}")
    elif pool["speedup"] < POOL_SPEEDUP_BAR:
        print(f"WARNING: process pool speedup {pool['speedup']:.2f}x is below the "
              f"{POOL_SPEEDUP_BAR}x bar over serial incremental")
        status = 1
    batching = run_batching_comparison(workers=pool_workers)
    batching["waiver"] = waiver
    if waiver is not None:
        print(f"WAIVED: batching bar not enforced — {waiver}")
    elif batching["speedup"] < BATCH_SPEEDUP_BAR:
        print(f"WARNING: batched dispatch speedup {batching['speedup']:.2f}x is "
              f"below the {BATCH_SPEEDUP_BAR}x bar over per-pair dispatch")
        status = 1
    overhead = run_tracing_overhead(n_rows)
    if overhead["overhead_fraction"] >= TRACING_OVERHEAD_BAR:
        print(f"WARNING: disabled-tracing overhead bound "
              f"{overhead['overhead_fraction'] * 100:.2f}% is at or above the "
              f"{TRACING_OVERHEAD_BAR * 100:.0f}% bar")
        status = 1
    if overhead["export_overhead_fraction"] >= EXPORT_OVERHEAD_BAR:
        print(f"WARNING: exporter-enabled overhead bound "
              f"{overhead['export_overhead_fraction'] * 100:.2f}% is at or "
              f"above the {EXPORT_OVERHEAD_BAR * 100:.0f}% bar")
        status = 1
    shutdown_process_pools()
    perf_record.record("backends", {
        "n_rows": n_rows,
        "serial": [
            {"step": name, "exact_s": exact, "incremental_s": incremental,
             "speedup": speedup}
            for name, exact, incremental, speedup in results
        ],
        "process_pool": pool,
        "shard_batching": batching,
        "tracing_overhead": overhead,
        "status": status,
    })
    return status


if __name__ == "__main__":
    raise SystemExit(main())
