"""Service-layer benchmark: concurrent tenants on one shared store.

Runs the 30-query evaluation workload through the multi-tenant
:class:`~repro.service.ExplanationService` and prints the timings::

    PYTHONPATH=src python benchmarks/bench_service.py

Three phases, mirroring the acceptance bars:

* **throughput** — 4 tenants replay the workload concurrently against one
  shared store (4 service workers) versus 4 isolated sessions replaying it
  serially.  The shared store coalesces in-flight duplicates and serves
  later tenants from the report memo, so the service must be at least
  **2x** faster end-to-end (in practice ~4x: one cold pass plus lookups,
  against four cold passes).
* **budget stress** — the same concurrent replay under a deliberately tiny
  store budget; the store's measured usage must never exceed the budget,
  and every report must still match the reference bit-for-bit.
* **warm path** — a tenant re-replays the workload against the warmed
  store; the PR 2 bar (warm ≥ 5x faster than cold) must still hold with
  the store behind locks and tenancy accounting.

Bit-identity is checked against fresh single-session explains of all 30
queries (skyline keys and raw/standardized contributions, zero tolerance).
"""

from __future__ import annotations

import sys
import threading
import time

import perf_record

from repro.core import FedexConfig
from repro.datasets import DatasetRegistry
from repro.service import ExplanationService, ServiceConfig
from repro.session import ExplanationSession
from repro.workloads import WORKLOAD

#: Dataset sizes mirroring the benchmark harness's "small" scale.
_SIZES = dict(spotify_rows=8_000, bank_rows=5_000, sales_rows=20_000, products_rows=1_500)

N_TENANTS = 4
THROUGHPUT_BAR = 2.0
WARM_SPEEDUP_BAR = 5.0
STRESS_BUDGET_BYTES = 16 * 1024 * 1024


def _build_steps():
    registry = DatasetRegistry(seed=0, **_SIZES)
    steps = [query.build_step(registry) for query in WORKLOAD]
    for step in steps:
        step.output  # apply outside the timed passes
    return steps


def _reference_reports(steps):
    session = ExplanationSession(config=FedexConfig(seed=0))
    return [session.explain(step) for step in steps]


def _assert_identical(report, reference, label):
    assert report.skyline_keys() == reference.skyline_keys(), f"{label}: skyline differs"
    mine = {c.key(): (c.contribution, c.standardized_contribution)
            for c in report.all_candidates}
    theirs = {c.key(): (c.contribution, c.standardized_contribution)
              for c in reference.all_candidates}
    assert mine.keys() == theirs.keys(), f"{label}: candidate pools differ"
    for key, values in mine.items():
        assert values == theirs[key], f"{label}: contribution differs at {key}"


def _run_tenants(service, steps, reference, budget=None):
    """Replay the workload from N_TENANTS concurrent clients; returns seconds."""
    failures = []
    max_usage = [0]

    def client(tenant):
        try:
            for step, expected in zip(steps, reference):
                report = service.explain(tenant, step)
                _assert_identical(report, expected, tenant)
                usage = service.store.usage_bytes
                if usage > max_usage[0]:
                    max_usage[0] = usage
        except Exception as exc:  # pragma: no cover - failure path
            failures.append((tenant, exc))

    threads = [threading.Thread(target=client, args=(f"tenant-{i}",))
               for i in range(N_TENANTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if failures:
        raise AssertionError(f"tenant failures: {failures}")
    if budget is not None and max_usage[0] > budget:
        raise AssertionError(
            f"store usage {max_usage[0]} exceeded the budget {budget}"
        )
    return elapsed


def run() -> dict:
    steps = _build_steps()

    # Reference: one fresh session, every query cold — also the bit-identity
    # baseline every service report is compared against.
    start = time.perf_counter()
    reference = _reference_reports(steps)
    single_cold = time.perf_counter() - start

    # Baseline: four isolated sessions, replayed serially (no sharing).
    start = time.perf_counter()
    for _ in range(N_TENANTS):
        isolated = ExplanationSession(config=FedexConfig(seed=0))
        for step in steps:
            isolated.explain(step)
    serial = time.perf_counter() - start

    # Service: four concurrent tenants, one shared store, four workers.
    service = ExplanationService(
        config=FedexConfig(seed=0), service_config=ServiceConfig(workers=N_TENANTS)
    )
    concurrent = _run_tenants(service, steps, reference)
    throughput = serial / max(concurrent, 1e-9)

    # Warm path: a fifth tenant replays the workload against the warm store.
    start = time.perf_counter()
    for step, expected in zip(steps, reference):
        _assert_identical(service.explain("warm-tenant", step), expected, "warm")
    warm = time.perf_counter() - start
    warm_speedup = single_cold / max(warm, 1e-9)
    coalesced = service.store.metrics.coalesced_requests
    hit_rate = service.store.metrics.hit_rate()
    service.close()

    # Budget stress: tiny budget, constant eviction, results still identical
    # and usage never above the line.
    stressed = ExplanationService(
        config=FedexConfig(seed=0),
        service_config=ServiceConfig(workers=N_TENANTS,
                                     cache_budget_bytes=STRESS_BUDGET_BYTES,
                                     tenant_quota_bytes=STRESS_BUDGET_BYTES // 2),
    )
    stress_seconds = _run_tenants(stressed, steps, reference,
                                  budget=STRESS_BUDGET_BYTES)
    stress_evictions = stressed.store.metrics.evictions
    stressed.close()

    print(f"30-query workload x {N_TENANTS} tenants, "
          f"{_SIZES['spotify_rows']:,}-row spotify scale "
          f"(seconds, python {sys.version.split()[0]})")
    print(f"{'mode':28s} {'seconds':>9s}")
    print(f"{'single session, cold':28s} {single_cold:9.3f}")
    print(f"{'4 isolated serial sessions':28s} {serial:9.3f}")
    print(f"{'service, 4 tenants shared':28s} {concurrent:9.3f}  "
          f"({throughput:.1f}x vs isolated)")
    print(f"{'warm tenant replay':28s} {warm:9.3f}  "
          f"({warm_speedup:.1f}x vs cold)")
    print(f"{'stress (16 MiB budget)':28s} {stress_seconds:9.3f}  "
          f"({stress_evictions} evictions, usage never above budget)")
    print(f"coalesced in-flight requests: {coalesced}; store hit rate: {hit_rate:.2f}")

    return {
        "single_cold": single_cold, "serial": serial, "concurrent": concurrent,
        "throughput": throughput, "warm_speedup": warm_speedup,
    }


def main() -> int:
    results = run()
    status = 0
    if results["throughput"] < THROUGHPUT_BAR:
        print(f"WARNING: shared-store throughput {results['throughput']:.1f}x is below "
              f"the {THROUGHPUT_BAR:.0f}x acceptance bar")
        status = 1
    if results["warm_speedup"] < WARM_SPEEDUP_BAR:
        print(f"WARNING: warm-path speedup {results['warm_speedup']:.1f}x is below the "
              f"{WARM_SPEEDUP_BAR:.0f}x acceptance bar")
        status = 1
    perf_record.record("service", {**results, "workers": N_TENANTS, "status": status})
    return status


if __name__ == "__main__":
    raise SystemExit(main())
