"""CI smoke test of the serving telemetry routes under a real traced workload.

An :class:`~repro.service.ExplanationService` routing the 30-query workload
through the process backend (4 workers) while an
:class:`~repro.serving.ExplanationServer` fronts it: ``/metrics`` and
``/healthz`` are polled *during* the run by a scraper thread, the final
``/metrics`` payload must survive the strict Prometheus parser with the
per-worker batch histograms present — the cross-process aggregation
visible exactly where a scraper would look — and ``/traces`` must serve
the traced requests with their critical paths.
"""

from __future__ import annotations

import json
import sys
import threading
import urllib.request
from pathlib import Path

from conftest import run_once

from repro.core import FedexConfig
from repro.service import ExplanationService, ServiceConfig
from repro.serving import ExplanationServer
from repro.workloads import WORKLOAD

# The strict Prometheus parser is a test helper living in tests/.
sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from prometheus_text import validate_prometheus_text  # noqa: E402

WORKERS = 4


def _get(url, timeout=10.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


def _run_workload(registry, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    service = ExplanationService(
        config=FedexConfig(backend="process", workers=WORKERS,
                           spill_bytes=0, seed=0),
        service_config=ServiceConfig(workers=WORKERS),
    )
    server = ExplanationServer(service).start()
    stop = threading.Event()
    scrapes = {"metrics": 0, "healthz": 0}
    errors = []

    def scraper():
        while not stop.is_set():
            try:
                validate_prometheus_text(_get(server.url + "/metrics"))
                scrapes["metrics"] += 1
                health = json.loads(_get(server.url + "/healthz"))
                assert health["status"] == "ok", health
                scrapes["healthz"] += 1
            except Exception as error:  # noqa: BLE001 - surfaced via errors
                errors.append(error)
                return
            stop.wait(0.1)

    thread = threading.Thread(target=scraper, daemon=True)
    thread.start()
    try:
        for query in WORKLOAD:
            service.explain("bench", query.build_step(registry))
        final_metrics = _get(server.url + "/metrics")
        traces = json.loads(_get(server.url + "/traces?limit=30"))
    finally:
        stop.set()
        thread.join(10)
        server.close()
        service.close()
    return final_metrics, traces, scrapes, errors


def test_endpoint_survives_a_traced_workload(benchmark, bench_registry,
                                             monkeypatch):
    final_metrics, traces, scrapes, errors = run_once(
        benchmark, _run_workload, bench_registry, monkeypatch)

    # The scraper polled the live endpoint throughout, never tripping.
    assert errors == [], f"mid-run scrapes failed: {errors!r}"
    assert scrapes["metrics"] >= 1 and scrapes["healthz"] >= 1

    # The final payload is one valid Prometheus document carrying the
    # worker-shipped histograms the process backend aggregated.
    families = validate_prometheus_text(final_metrics)
    assert families["repro_service_requests_total"] == "counter"
    for family in ("repro_worker_pair_seconds", "repro_worker_batch_seconds",
                   "repro_process_batch_seconds"):
        assert families[family] == "histogram", sorted(families)
    # ... labeled per worker with a pid that is not this process.
    import os
    import re

    labels = set(re.findall(r'repro_worker_batch_seconds_count\{'
                            r'worker="(\d+)"\}', final_metrics))
    assert labels and str(os.getpid()) not in labels
    assert re.search(r'repro_worker_structure_events_total{[^}]*tier="local"',
                     final_metrics)

    # /traces kept the most recent requests, each with a real critical path.
    assert traces["count"] >= 1
    for document in traces["traces"]:
        assert document["root"] == "explain"
        path = [step["name"] for step in document["critical_path"]]
        assert path[0] == "explain" and len(path) >= 2
