"""Tests of the multi-tenant explanation service front end.

Families: request routing (open/submit/explain produce engine-identical
reports), concurrency stress (many tenants, shared store, budget invariants
under a live worker pool), admission control (block vs reject), and
metrics.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

import repro
from repro import (
    Comparison,
    ExplanationService,
    ExploratoryStep,
    FedexConfig,
    Filter,
    GroupBy,
    ServiceConfig,
)
from prometheus_text import validate_prometheus_text
from repro.core import FedexExplainer
from repro.errors import ServiceError, ServiceOverloadError
from repro.session import CacheStore

#: Worker count of the stress tests; the CI service-concurrency job sets 4.
STRESS_WORKERS = int(os.environ.get("REPRO_SERVICE_WORKERS", "4"))


@pytest.fixture
def service():
    svc = ExplanationService(
        config=FedexConfig(seed=0),
        service_config=ServiceConfig(workers=STRESS_WORKERS),
    )
    yield svc
    svc.close()


def _steps(frame, thresholds=(60, 65, 70)):
    return [
        ExploratoryStep([frame], Filter(Comparison("popularity", ">", threshold)))
        for threshold in thresholds
    ]


class TestRouting:
    def test_explain_matches_stateless_engine(self, service, spotify_small):
        step = _steps(spotify_small)[0]
        reference = FedexExplainer(FedexConfig(seed=0)).explain(step)
        report = service.explain("alice", step)
        assert report.skyline_keys() == reference.skyline_keys()

    def test_open_routes_wrapper_through_service(self, service, spotify_small):
        songs = service.open("alice", spotify_small)
        popular = songs.filter(Comparison("popularity", ">", 65))
        first = popular.explain()
        second = popular.explain()
        assert second is first  # memo hit through the shared store
        assert service.metrics.snapshot("alice")["requests"] == 2

    def test_derived_wrappers_keep_the_tenant_binding(self, service, spotify_small):
        songs = service.open("alice", spotify_small)
        recent = songs.filter(Comparison("year", ">=", 1990))
        popular = recent.filter(Comparison("popularity", ">", 65))
        popular.explain()
        assert service.metrics.snapshot("alice")["requests"] == 1
        assert service.store.tenant_usage("alice") > 0

    def test_submit_returns_future(self, service, spotify_small):
        step = _steps(spotify_small)[0]
        future = service.submit("alice", step)
        report = future.result(timeout=60)
        assert report.config.seed == 0

    def test_tenants_share_reports_across_sessions(self, service, spotify_small):
        step = _steps(spotify_small)[0]
        first = service.explain("alice", step)
        second = service.explain("bob", step)
        assert second is first

    def test_closed_service_rejects_requests(self, spotify_small):
        svc = ExplanationService()
        svc.close()
        with pytest.raises(ServiceError):
            svc.submit("alice", _steps(spotify_small)[0])

    def test_per_request_config_override(self, service, spotify_small):
        step = _steps(spotify_small)[0]
        report = service.explain("alice", step, config=FedexConfig(top_k_columns=1))
        assert len(report.selected_columns) <= 1


class TestConcurrencyStress:
    def test_four_tenants_hammering_shared_store(self, spotify_small):
        """The acceptance stress shape: concurrent tenants, bounded store."""
        budget = 48 * 1024 * 1024
        svc = ExplanationService(
            config=FedexConfig(seed=0),
            service_config=ServiceConfig(workers=STRESS_WORKERS,
                                         cache_budget_bytes=budget,
                                         tenant_quota_bytes=budget // 2),
        )
        steps = _steps(spotify_small, thresholds=(55, 60, 65, 70, 75))
        reference = [FedexExplainer(FedexConfig(seed=0)).explain(step) for step in steps]
        failures = []
        max_usage = [0]

        def client(tenant: str) -> None:
            try:
                for step, expected in zip(steps, reference):
                    report = svc.explain(tenant, step)
                    if report.skyline_keys() != expected.skyline_keys():
                        failures.append((tenant, "skyline mismatch"))
                    max_usage[0] = max(max_usage[0], svc.store.usage_bytes)
            except Exception as exc:  # pragma: no cover - failure path
                failures.append((tenant, exc))

        threads = [threading.Thread(target=client, args=(f"tenant-{i}",))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        svc.close()
        assert not failures
        assert max_usage[0] <= budget
        snapshot = svc.stats()
        assert snapshot["requests"] == 20
        assert snapshot["completed"] == 20
        assert snapshot["errors"] == 0
        # The lifecycle counters reconcile at quiescence: every admitted
        # request was closed exactly once.
        assert snapshot["requests"] == (snapshot["completed"]
                                        + snapshot["errors"]
                                        + snapshot["inflight"])
        assert snapshot["inflight"] == 0

    def test_mixed_workload_with_quota_pressure(self, spotify_small):
        """Tiny per-tenant quotas force constant eviction; results stay right."""
        svc = ExplanationService(
            config=FedexConfig(seed=0),
            service_config=ServiceConfig(workers=STRESS_WORKERS,
                                         cache_budget_bytes=8 * 1024 * 1024,
                                         tenant_quota_bytes=2 * 1024 * 1024),
        )
        steps = _steps(spotify_small) + [
            ExploratoryStep([spotify_small], GroupBy("decade", {"loudness": ["mean"]}))
        ]
        reference = [FedexExplainer(FedexConfig(seed=0)).explain(step) for step in steps]
        failures = []

        def client(tenant: str) -> None:
            try:
                for _ in range(2):
                    for step, expected in zip(steps, reference):
                        report = svc.explain(tenant, step)
                        if report.skyline_keys() != expected.skyline_keys():
                            failures.append((tenant, "mismatch"))
            except Exception as exc:  # pragma: no cover - failure path
                failures.append((tenant, exc))

        threads = [threading.Thread(target=client, args=(f"tenant-{i}",))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        svc.close()
        assert not failures
        assert svc.store.usage_bytes <= 8 * 1024 * 1024
        for tenant in svc.store.tenants():
            assert svc.store.tenant_usage(tenant) <= 2 * 1024 * 1024


class TestLineageKeyedMemo:
    """Derived steps are keyed by lineage, so memo hits never materialise."""

    @pytest.fixture
    def applies(self, monkeypatch):
        """Names of the threads that applied a Filter to one of ``frames``:
        materialisations (the engine's reruns apply it to reduced inputs)."""
        record = {"frames": [], "threads": []}
        original = Filter.apply

        def counting(self, inputs):
            if any(inputs[0] is frame for frame in record["frames"]):
                record["threads"].append(threading.current_thread().name)
            return original(self, inputs)

        monkeypatch.setattr(Filter, "apply", counting)
        return record

    def test_memo_hit_never_applies_the_operation(self, service, spotify_small,
                                                  applies):
        first = service.explain("alice", _steps(spotify_small)[0])
        applies["frames"].append(spotify_small)
        fresh = _steps(spotify_small)[0]
        report = service.submit("bob", fresh).result(timeout=60)
        assert report is first
        assert applies["threads"] == []
        assert fresh._output is None

    def test_miss_applies_once_on_the_submitting_thread(self, service,
                                                        spotify_small, applies):
        applies["frames"].append(spotify_small)
        step = _steps(spotify_small)[0]
        service.submit("alice", step).result(timeout=60)
        assert applies["threads"] == [threading.current_thread().name]
        assert step._output is not None

    def test_one_report_lookup_per_request_on_hit_and_miss(self, spotify_small,
                                                          monkeypatch):
        svc = ExplanationService(config=FedexConfig(seed=0),
                                 service_config=ServiceConfig(workers=2))
        try:
            session = svc.session("alice")
            report_gets = []
            store_get = svc.store.get

            def counting_get(layer, key, default=None):
                if layer == "reports":
                    report_gets.append(key)
                return store_get(layer, key, default)

            monkeypatch.setattr(svc.store, "get", counting_get)

            def lookups():
                stats = session.stats
                return (stats.report_hits + stats.report_misses, len(report_gets))

            for expected_hit in (False, True):
                before = lookups()
                svc.explain("alice", _steps(spotify_small)[0])
                after = lookups()
                assert (after[0] - before[0], after[1] - before[1]) == (1, 1)
                assert session.stats.report_hits == int(expected_hit)
        finally:
            svc.close()

    def test_explicit_output_never_shares_the_derived_entry(self, service,
                                                           spotify_small):
        operation = Filter(Comparison("popularity", ">", 65))
        # The right rows with a shifted column: not apply(inputs).
        wrong = operation.apply([spotify_small]).copy()
        wrong["energy"].values[:] += 0.5
        for explicit_first in (True, False):
            service.store.clear()
            derived = ExploratoryStep([spotify_small], operation)
            explicit = ExploratoryStep([spotify_small], operation, output=wrong)
            order = [explicit, derived] if explicit_first else [derived, explicit]
            reports = {id(step): service.explain("alice", step) for step in order}
            assert reports[id(derived)] is not reports[id(explicit)]
            assert reports[id(derived)].interestingness_scores != \
                reports[id(explicit)].interestingness_scores
            assert service.store.layer_count("reports") == 2

    def test_derived_and_equal_explicit_output_give_identical_reports(
            self, service, spotify_small):
        from repro.serving import dump_json, report_document

        def canonical(report) -> bytes:
            document = report_document(report)
            document.pop("timings")
            return dump_json(document)

        operation = Filter(Comparison("popularity", ">", 65))
        derived = ExploratoryStep([spotify_small], operation)
        explicit = ExploratoryStep([spotify_small], operation,
                                   output=operation.apply([spotify_small]))
        first = service.explain("alice", derived)
        second = service.explain("alice", explicit)
        assert second is not first  # lineage and content keys differ
        assert canonical(second) == canonical(first)


class TestAdmission:
    def _blocking_service(self, admission: str):
        svc = ExplanationService(
            service_config=ServiceConfig(workers=1, max_inflight_per_tenant=1,
                                         admission=admission),
        )
        release = threading.Event()
        started = threading.Event()
        session = svc.session("alice")

        def slow_explain(step, measure=None, config=None, prepared=None):
            started.set()
            release.wait(timeout=10)
            return "done"

        session.explain = slow_explain
        return svc, release, started

    def test_reject_sheds_excess_load(self, spotify_small):
        svc, release, started = self._blocking_service("reject")
        step = _steps(spotify_small)[0]
        try:
            first = svc.submit("alice", step)
            assert started.wait(timeout=10)
            with pytest.raises(ServiceOverloadError):
                svc.submit("alice", step)
            assert svc.metrics.snapshot("alice")["rejected"] == 1
            # Other tenants have their own admission slots (per-tenant bound).
            release.set()
            assert first.result(timeout=10) == "done"
        finally:
            release.set()
            svc.close()

    def test_block_waits_for_a_slot(self, spotify_small):
        svc, release, started = self._blocking_service("block")
        step = _steps(spotify_small)[0]
        try:
            first = svc.submit("alice", step)
            assert started.wait(timeout=10)
            outcome = {}

            def second_caller():
                outcome["report"] = svc.explain("alice", step)

            blocked = threading.Thread(target=second_caller)
            blocked.start()
            time.sleep(0.1)
            assert "report" not in outcome  # still waiting on the slot
            release.set()
            blocked.join(timeout=10)
            assert outcome["report"] == "done"
            assert first.result(timeout=10) == "done"
        finally:
            release.set()
            svc.close()

    def test_session_failure_releases_admission_slot(self, spotify_small):
        """Regression: a submit that fails before reaching the pool must
        release the tenant's admission slot (and close the metrics
        accounting), not leak it.  Pre-fix, the failed submit left the
        tenant's only slot acquired and the follow-up request below was
        shed with ServiceOverloadError."""
        svc = ExplanationService(
            config=FedexConfig(seed=0),
            service_config=ServiceConfig(workers=1, max_inflight_per_tenant=1,
                                         admission="reject"),
        )
        step = _steps(spotify_small)[0]
        try:
            def exploding_session(tenant):
                raise RuntimeError("session backend unavailable")

            svc.session = exploding_session
            with pytest.raises(RuntimeError):
                svc.submit("alice", step)
            del svc.session  # restore the real (class) method
            report = svc.explain("alice", step)  # pre-fix: overload error
            assert report.skyline_keys()
            snapshot = svc.metrics.snapshot("alice")
            assert snapshot["requests"] == (snapshot["completed"]
                                            + snapshot["errors"]
                                            + snapshot["inflight"])
            assert snapshot["inflight"] == 0
        finally:
            svc.close()

    def test_executor_failure_closes_admitted_accounting(self, spotify_small):
        """A request admitted (counted) but refused by the pool is closed
        as an error, keeping admitted == completed + errors + inflight."""
        svc = ExplanationService(
            service_config=ServiceConfig(workers=1, max_inflight_per_tenant=1,
                                         admission="reject"),
        )
        step = _steps(spotify_small)[0]
        try:
            svc._executor.shutdown(wait=True)
            with pytest.raises(RuntimeError):  # pool refuses new work
                svc.submit("alice", step)
            snapshot = svc.metrics.snapshot("alice")
            assert snapshot["requests"] == 1
            assert snapshot["errors"] == 1
            assert snapshot["inflight"] == 0
        finally:
            svc.close()

    def test_slot_released_after_completion(self, spotify_small):
        svc = ExplanationService(
            config=FedexConfig(seed=0),
            service_config=ServiceConfig(workers=1, max_inflight_per_tenant=1,
                                         admission="reject"),
        )
        step = _steps(spotify_small)[0]
        try:
            for _ in range(3):  # sequential requests never trip the bound
                svc.explain("alice", step)
        finally:
            svc.close()


class TestMetrics:
    def test_latency_and_counts_recorded(self, service, spotify_small):
        step = _steps(spotify_small)[0]
        service.explain("alice", step)
        service.explain("alice", step)
        snapshot = service.stats("alice")
        assert snapshot["requests"] == 2
        assert snapshot["completed"] == 2
        assert snapshot["mean_seconds"] > 0
        overall = service.stats()
        assert overall["max_seconds"] >= overall["mean_seconds"] > 0
        assert overall["store"]["hit_rate"] > 0  # the second explain hit

    def test_errors_counted(self, service):
        bad_step = ExploratoryStep(
            [__import__("repro").DataFrame({"x": np.asarray([1.0, 2.0])})],
            Filter(Comparison("x", ">", 1.0)),
        )
        with pytest.raises(Exception):
            # Interestingness has no applicable column -> ExplanationError.
            service.explain("alice", bad_step, config=FedexConfig(target_columns=["nope"]))
        snapshot = service.stats("alice")
        assert snapshot["errors"] == 1
        assert snapshot["requests"] == (snapshot["completed"]
                                        + snapshot["errors"]
                                        + snapshot["inflight"])
        assert snapshot["inflight"] == 0

    def test_store_usage_visible_per_tenant(self, service, spotify_small):
        service.explain("alice", _steps(spotify_small)[0])
        assert service.stats("alice")["store_bytes"] > 0
        assert service.stats()["store_bytes"] >= service.stats("alice")["store_bytes"]


class TestObservability:
    def test_render_metrics_is_one_valid_prometheus_document(
            self, service, spotify_small):
        service.explain("alice", _steps(spotify_small)[0])
        families = validate_prometheus_text(service.render_metrics())
        # Historical names survive the namespacing (they already conform),
        # and each family appears exactly once — the parser would reject
        # the old concatenation's duplicate blocks.
        assert families["repro_service_requests_total"] == "counter"
        assert families["repro_service_request_seconds"] == "histogram"

    def test_duplicate_family_names_across_registries_dedupe(
            self, service, spotify_small):
        from repro.obs.metrics import REGISTRY

        # Force the collision render_metrics has to survive: the same
        # family name registered in the service registry and the global
        # one.  Namespacing keeps them distinct; nothing is dropped.
        try:
            service.metrics.registry.counter("collide_total", "svc side").inc(1)
            REGISTRY.counter("collide_total", "global side").inc(2)
        except ValueError:
            pass  # already registered by an earlier test in this process
        families = validate_prometheus_text(service.render_metrics())
        assert "repro_service_collide_total" in families
        assert "repro_collide_total" in families
        service.explain("alice", _steps(spotify_small)[0])
        validate_prometheus_text(service.render_metrics())

    def test_tracing_override_reaches_the_pool(self, service, spotify_small):
        """``repro.tracing()`` is a contextvar override; the pool worker
        must run in the caller's context to see it."""
        with repro.tracing():
            report = service.explain("alice", _steps(spotify_small)[0])
        assert report.trace is not None
        assert [span.name for span in report.trace.children(None)] == ["explain"]

    def test_traced_request_appears_in_server_traces(self, service,
                                                     spotify_small,
                                                     monkeypatch):
        """A request traced through ExplanationServer is served by its own
        ``/traces``; ``close()`` unregisters the ring's trace consumer."""
        import json
        import urllib.request

        from repro.obs.trace import begin_request, end_request
        from repro.serving import ExplanationServer

        monkeypatch.setenv("REPRO_TRACE", "1")
        server = ExplanationServer(service,
                                   frames={"spotify": spotify_small}).start()
        try:
            body = json.dumps({"query": "SELECT * FROM spotify "
                                        "WHERE popularity > 65"}).encode()
            request = urllib.request.Request(server.url + "/explain", data=body)
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.status == 200
            with urllib.request.urlopen(server.url + "/traces", timeout=5) as r:
                traces = json.loads(r.read())
        finally:
            server.close()
        assert traces["count"] >= 1
        newest = traces["traces"][0]
        assert newest["root"] == "explain"
        assert newest["critical_path"][0]["name"] == "explain"

        # After close() later traced requests reach no ring of this server.
        kept = len(server._ring)
        tracer, token = begin_request()
        with tracer.span("explain"):
            pass
        assert end_request(tracer, token) is not None
        assert len(server._ring) == kept
