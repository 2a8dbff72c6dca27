"""The metrics registry: exactness under contention, quantiles, exposition."""

from __future__ import annotations

import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    capture,
    default_buckets,
    namespace_metric,
    registry_delta,
    render_registries,
)
from prometheus_text import validate_prometheus_text


@pytest.fixture
def registry():
    return MetricsRegistry()


# ------------------------------------------------------------------- families
class TestFamilies:
    def test_get_or_create_returns_the_same_family(self, registry):
        first = registry.counter("repro_x_total", "help")
        second = registry.counter("repro_x_total")
        assert first is second

    def test_kind_conflict_is_rejected(self, registry):
        registry.counter("repro_x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_x_total")

    def test_labelname_conflict_is_rejected(self, registry):
        registry.counter("repro_x_total", labelnames=("tenant",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("repro_x_total", labelnames=("shard",))

    def test_invalid_names_are_rejected(self, registry):
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("kebab-case")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("repro_ok_total", labelnames=("bad-label",))

    def test_label_key_requires_exact_label_set(self, registry):
        family = registry.counter("repro_x_total", labelnames=("tenant",))
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(user="alice")
        with pytest.raises(ValueError, match="takes labels"):
            family.labels()

    def test_labeled_children_are_independent(self, registry):
        family = registry.counter("repro_x_total", labelnames=("tenant",))
        family.labels(tenant="a").inc(2)
        family.labels(tenant="b").inc(5)
        assert family.get(tenant="a").value == 2
        assert family.get(tenant="b").value == 5
        assert family.get(tenant="c") is None
        assert family.total() == 7
        assert family.label_values() == [("a",), ("b",)]


# ------------------------------------------------------------------ primitives
class TestPrimitives:
    def test_counter_rejects_negative(self, registry):
        family = registry.counter("repro_x_total")
        with pytest.raises(ValueError, match="only go up"):
            family.inc(-1)

    def test_gauge_set_max_is_a_running_maximum(self, registry):
        gauge = registry.gauge("repro_x")
        gauge.set_max(3.0)
        gauge.set_max(1.0)
        assert gauge.value == 3.0
        gauge.set_max(7.5)
        assert gauge.value == 7.5

    def test_gauge_inc_dec(self, registry):
        gauge = registry.gauge("repro_x")
        gauge.inc(4)
        gauge.dec(1.5)
        assert gauge.value == 2.5

    def test_histogram_sum_count_mean(self, registry):
        histogram = registry.histogram("repro_x_seconds").labels()
        for value in (0.1, 0.2, 0.3):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(0.6)
        assert histogram.mean == pytest.approx(0.2)

    def test_histogram_rejects_unsorted_bounds(self, registry):
        with pytest.raises(ValueError, match="sorted"):
            registry.histogram("repro_x_seconds", buckets=(2.0, 1.0)).labels()

    def test_quantile_range_is_validated(self, registry):
        histogram = registry.histogram("repro_x_seconds").labels()
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_empty_histogram_quantiles_are_zero(self, registry):
        histogram = registry.histogram("repro_x_seconds").labels()
        assert histogram.quantile(0.5) == 0.0
        assert histogram.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_reset_zeroes_every_series(self, registry):
        registry.counter("repro_a_total").inc(3)
        registry.gauge("repro_b").set(9)
        registry.histogram("repro_c_seconds").observe(0.5)
        registry.reset()
        assert registry.counter("repro_a_total").value == 0
        assert registry.gauge("repro_b").value == 0
        assert registry.histogram("repro_c_seconds").labels().count == 0


# --------------------------------------------------------- histogram accuracy
class TestHistogramQuantiles:
    def test_log_buckets_cover_microseconds_to_an_hour(self):
        buckets = default_buckets()
        assert len(buckets) == 33
        assert buckets[0] == pytest.approx(1e-6)
        assert buckets[-1] > 3600
        assert list(buckets) == sorted(buckets)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=1e-6, max_value=4000.0,
                              allow_nan=False), min_size=1, max_size=200))
    def test_quantile_within_one_log_bucket_of_truth(self, values):
        # The interpolated quantile can never leave the bucket holding the
        # true order statistic: it is bounded by the bucket's bounds, which
        # for log-2 buckets means within 2x of the exact value.
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_x_seconds").labels()
        for value in values:
            histogram.observe(value)
        exact = sorted(values)[min(len(values) - 1,
                                   max(0, math.ceil(0.95 * len(values)) - 1))]
        estimate = histogram.quantile(0.95)
        assert estimate <= exact * 2.0 + 1e-12
        assert estimate >= exact / 2.0 - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=4000.0, allow_nan=False))
    def test_boundary_value_lands_at_or_below_its_bucket(self, value):
        # bisect_left: an observation exactly on a bound is counted in that
        # bound's bucket (le semantics), never the next one up.
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_x_seconds").labels()
        histogram.observe(value)
        winning = next(i for i, c in enumerate(histogram.counts) if c)
        assert value <= histogram.bounds[winning]
        if winning > 0:
            assert value > histogram.bounds[winning - 1]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=1e-6, max_value=4000.0,
                              allow_nan=False), min_size=1, max_size=100),
           st.floats(min_value=0.0, max_value=1.0))
    def test_quantiles_are_monotone_and_bounded(self, values, q):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_x_seconds").labels()
        for value in values:
            histogram.observe(value)
        estimate = histogram.quantile(q)
        assert 0.0 <= estimate <= histogram.bounds[-1]
        assert estimate <= histogram.quantile(1.0) + 1e-12

    def test_overflow_observations_report_the_top_bound(self, registry):
        histogram = registry.histogram("repro_x_seconds",
                                       buckets=(1.0, 2.0)).labels()
        histogram.observe(100.0)
        assert histogram.quantile(0.99) == 2.0

    def test_family_aggregate_merges_children(self, registry):
        family = registry.histogram("repro_x_seconds", labelnames=("tenant",))
        family.labels(tenant="a").observe(0.010)
        family.labels(tenant="b").observe(0.010)
        family.labels(tenant="b").observe(0.010)
        merged = family.aggregate()
        assert merged.count == 3
        assert merged.sum == pytest.approx(0.030)
        assert merged.mean == pytest.approx(0.010)
        # All mass in one bucket: the quantile stays within that bucket.
        assert 0.005 <= merged.quantile(0.5) <= 0.020

    def test_aggregate_rejects_non_histograms(self, registry):
        with pytest.raises(ValueError, match="not a histogram"):
            registry.counter("repro_x_total").aggregate()


# ------------------------------------------------------------------ contention
class TestContention:
    THREADS = 8
    PER_THREAD = 2500

    def test_counter_counts_exactly_under_contention(self, registry):
        family = registry.counter("repro_x_total", labelnames=("worker",))
        barrier = threading.Barrier(self.THREADS)

        def hammer(worker: int) -> None:
            barrier.wait()
            for _ in range(self.PER_THREAD):
                family.labels(worker=str(worker % 2)).inc()

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert family.total() == self.THREADS * self.PER_THREAD

    def test_histogram_counts_exactly_under_contention(self, registry):
        family = registry.histogram("repro_x_seconds")
        barrier = threading.Barrier(self.THREADS)

        def hammer() -> None:
            barrier.wait()
            for i in range(self.PER_THREAD):
                family.observe(1e-4 * (1 + i % 7))

        threads = [threading.Thread(target=hammer) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        child = family.labels()
        assert child.count == self.THREADS * self.PER_THREAD
        assert sum(child.counts) == child.count

    def test_concurrent_family_creation_yields_one_family(self, registry):
        results = []
        barrier = threading.Barrier(self.THREADS)

        def create() -> None:
            barrier.wait()
            results.append(registry.counter("repro_race_total"))

        threads = [threading.Thread(target=create) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(family is results[0] for family in results)


# ------------------------------------------------------------------ exposition
class TestRenderText:
    def test_counter_and_gauge_lines(self, registry):
        registry.counter("repro_x_total", "Things counted.",
                         labelnames=("tenant",)).labels(tenant="a").inc(2)
        registry.gauge("repro_y", "A level.").set(1.5)
        text = registry.render_text()
        assert "# HELP repro_x_total Things counted." in text
        assert "# TYPE repro_x_total counter" in text
        assert 'repro_x_total{tenant="a"} 2' in text
        assert "# TYPE repro_y gauge" in text
        assert "repro_y 1.5" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative_with_inf(self, registry):
        family = registry.histogram("repro_x_seconds", "Latency.",
                                    buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 99.0):
            family.observe(value)
        text = registry.render_text()
        assert 'repro_x_seconds_bucket{le="1"} 1' in text
        assert 'repro_x_seconds_bucket{le="2"} 2' in text
        assert 'repro_x_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_x_seconds_sum 101" in text
        assert "repro_x_seconds_count 3" in text

    def test_label_values_are_escaped(self, registry):
        registry.counter("repro_x_total", labelnames=("tenant",)).labels(
            tenant='we"ird\nname\\').inc()
        text = registry.render_text()
        assert r'tenant="we\"ird\nname\\"' in text

    def test_empty_registry_renders_empty(self, registry):
        assert registry.render_text() == ""

    def test_collector_samples_are_rendered(self, registry):
        registry.register_collector("mod", lambda: [
            ("repro_mod_things_total", "counter", "Module things.", 4.0, {}),
            ("repro_mod_level", "gauge", "", 2.5, {"shard": "s1"}),
        ])
        text = registry.render_text()
        assert "# TYPE repro_mod_things_total counter" in text
        assert "repro_mod_things_total 4" in text
        assert 'repro_mod_level{shard="s1"} 2.5' in text

    def test_broken_collector_does_not_break_the_scrape(self, registry):
        registry.counter("repro_ok_total").inc()
        registry.register_collector("bad", lambda: 1 / 0)
        text = registry.render_text()
        assert "repro_ok_total 1" in text

    def test_unregister_collector(self, registry):
        registry.register_collector("mod", lambda: [
            ("repro_mod_total", "counter", "", 1.0, {})])
        registry.unregister_collector("mod")
        assert "repro_mod_total" not in registry.render_text()

    def test_snapshot_includes_series_and_collectors(self, registry):
        registry.counter("repro_x_total", labelnames=("t",)).labels(t="a").inc(3)
        registry.histogram("repro_y_seconds").observe(0.5)
        registry.register_collector("mod", lambda: [
            ("repro_z_total", "counter", "", 7.0, {})])
        snapshot = registry.snapshot()
        assert snapshot['repro_x_total{t="a"}'] == 3
        assert snapshot["repro_y_seconds_sum"] == 0.5
        assert snapshot["repro_y_seconds_count"] == 1
        assert snapshot["repro_z_total"] == 7.0


# -------------------------------------------------------------- module wiring
class TestModuleWiring:
    def test_global_registry_carries_process_and_fingerprint_collectors(self):
        # Importing the hot modules registers their collectors on REGISTRY.
        import repro.core.backends.process  # noqa: F401
        import repro.dataframe.column  # noqa: F401

        text = REGISTRY.render_text()
        assert "repro_process_" in text
        assert "repro_fingerprint_full_hashes_total" in text

    def test_capture_yields_scoped_deltas(self):
        from repro.core.backends.process import PROCESS_STATS

        with capture(PROCESS_STATS) as probe:
            PROCESS_STATS.shards_completed += 2
        try:
            delta = probe.delta()
            assert delta["shards_completed"] == 2
        finally:
            PROCESS_STATS.shards_completed -= 2

    def test_process_stats_snapshot_delta_roundtrip(self):
        from repro.core.backends.process import PROCESS_STATS

        before = PROCESS_STATS.snapshot()
        PROCESS_STATS.batches_submitted += 3
        try:
            assert PROCESS_STATS.delta(before)["batches_submitted"] == 3
        finally:
            PROCESS_STATS.batches_submitted -= 3

    def test_fingerprint_stats_snapshot_delta_roundtrip(self):
        from repro.dataframe.column import FINGERPRINT_STATS

        before = FINGERPRINT_STATS.snapshot()
        FINGERPRINT_STATS.full_hashes += 1
        try:
            delta = FINGERPRINT_STATS.delta(before)
            assert delta["full_hashes"] == 1
        finally:
            FINGERPRINT_STATS.full_hashes -= 1


# ------------------------------------------------- dump / delta / merge (IPC)
class TestDumpDeltaMerge:
    def test_dump_is_plain_picklable_state(self, registry):
        import pickle

        registry.counter("repro_x_total", "things", ("t",)).labels(t="a").inc(2)
        registry.histogram("repro_y_seconds", buckets=(1.0, 2.0)).observe(0.5)
        payload = pickle.loads(pickle.dumps(registry.dump()))
        assert payload["repro_x_total"]["series"][("a",)] == 2
        state = payload["repro_y_seconds"]["series"][()]
        assert state["count"] == 1 and state["sum"] == 0.5

    def test_delta_diffs_counters_and_histograms(self, registry):
        counter = registry.counter("repro_x_total")
        histogram = registry.histogram("repro_y_seconds")
        counter.inc(5)
        histogram.observe(0.1)
        before = registry.dump()
        counter.inc(3)
        histogram.observe(0.2)
        histogram.observe(0.4)
        delta = registry_delta(before, registry.dump())
        assert delta["repro_x_total"]["series"][()] == 3
        state = delta["repro_y_seconds"]["series"][()]
        assert state["count"] == 2
        assert state["sum"] == pytest.approx(0.6)

    def test_quiet_series_ship_nothing(self, registry):
        registry.counter("repro_x_total").inc(5)
        registry.histogram("repro_y_seconds").observe(1.0)
        before = registry.dump()
        delta = registry_delta(before, registry.dump())
        assert delta == {}

    def test_merge_adds_extra_labels(self, registry):
        registry.counter("repro_x_total", "things", ("t",)).labels(t="a").inc(4)
        registry.histogram("repro_y_seconds").observe(0.25)
        parent = MetricsRegistry()
        parent.merge(registry.dump(), labels={"worker": "123"})
        snapshot = parent.snapshot()
        assert snapshot['repro_x_total{t="a",worker="123"}'] == 4
        assert snapshot['repro_y_seconds{worker="123"}_count'] == 1

    def test_merge_accumulates_across_batches(self, registry):
        counter = registry.counter("repro_x_total")
        parent = MetricsRegistry()
        before = registry.dump()
        counter.inc(2)
        parent.merge(registry_delta(before, registry.dump()), labels={"worker": "1"})
        before = registry.dump()
        counter.inc(3)
        parent.merge(registry_delta(before, registry.dump()), labels={"worker": "1"})
        assert parent.snapshot()['repro_x_total{worker="1"}'] == 5

    def test_merged_histogram_quantiles_follow_observations(self, registry):
        histogram = registry.histogram("repro_y_seconds")
        for value in (0.001, 0.002, 0.004, 0.5):
            histogram.observe(value)
        parent = MetricsRegistry()
        parent.merge(registry.dump(), labels={"worker": "9"})
        child = parent.histogram(
            "repro_y_seconds", labelnames=("worker",)).labels(worker="9")
        assert child.count == 4
        assert child.quantile(0.5) <= 0.01

    def test_merge_skips_clashing_registrations(self, registry):
        registry.counter("repro_x").inc(1)
        parent = MetricsRegistry()
        parent.gauge("repro_x", labelnames=("worker",)).labels(worker="1").set(7)
        parent.merge(registry.dump(), labels={"worker": "1"})  # must not raise
        assert parent.snapshot()['repro_x{worker="1"}'] == 7

    def test_merge_survives_bucket_length_mismatch(self, registry):
        registry.histogram("repro_y_seconds", buckets=(1.0,)).observe(0.5)
        parent = MetricsRegistry()
        parent.histogram("repro_y_seconds", labelnames=("worker",),
                         buckets=(1.0, 2.0, 4.0)).labels(worker="1").observe(0.5)
        parent.merge(registry.dump(), labels={"worker": "1"})
        # The mismatched payload is ignored; the existing series is intact.
        child = parent.histogram(
            "repro_y_seconds", labelnames=("worker",)).labels(worker="1")
        assert child.count == 1


# --------------------------------------------- namespaced multi-registry text
class TestRenderRegistries:
    def test_namespace_metric_reroots_names(self):
        assert namespace_metric("service", "repro_service_requests_total") == \
            "repro_service_requests_total"
        assert namespace_metric("store", "repro_hits_total") == \
            "repro_store_hits_total"
        assert namespace_metric("service", "plain_total") == \
            "repro_service_plain_total"
        assert namespace_metric("", "repro_export_items_total") == \
            "repro_export_items_total"

    def test_duplicate_families_dedupe_across_registries(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("requests_total").inc(1)
        second.counter("requests_total").inc(2)
        text = render_registries([("service", first), ("service", second)])
        assert text.count("# TYPE repro_service_requests_total counter") == 1
        validate_prometheus_text(text)

    def test_namespaced_concatenation_is_valid(self):
        service, store = MetricsRegistry(), MetricsRegistry()
        service.counter("repro_service_requests_total", "reqs",
                        ("tenant",)).labels(tenant="a").inc(1)
        service.histogram("repro_service_request_seconds").observe(0.5)
        store.counter("repro_store_hits_total").inc(3)
        text = render_registries([("service", service), ("store", store)])
        kinds = validate_prometheus_text(text)
        assert kinds["repro_service_requests_total"] == "counter"
        assert kinds["repro_service_request_seconds"] == "histogram"
        assert kinds["repro_store_hits_total"] == "counter"


# --------------------------------------------------------- strict text parser
class TestValidatePrometheusText:
    def test_accepts_a_real_rendering(self, registry):
        registry.counter("repro_x_total", "things", ("t",)).labels(
            t='we"ird').inc(2)
        registry.histogram("repro_y_seconds", "lat").observe(0.1)
        registry.gauge("repro_z").set(-1.5)
        kinds = validate_prometheus_text(registry.render_text())
        assert kinds == {"repro_x_total": "counter",
                         "repro_y_seconds": "histogram",
                         "repro_z": "gauge"}

    def test_rejects_duplicate_type_blocks(self):
        text = ("# TYPE repro_x_total counter\nrepro_x_total 1\n"
                "# TYPE repro_x_total counter\nrepro_x_total 2\n")
        with pytest.raises(ValueError, match="duplicate TYPE|interleaved|duplicate series"):
            validate_prometheus_text(text)

    def test_rejects_interleaved_families(self):
        text = ("# TYPE repro_a_total counter\n# TYPE repro_b_total counter\n"
                "repro_a_total 1\nrepro_b_total 1\nrepro_a_total{t=\"x\"} 2\n")
        with pytest.raises(ValueError, match="interleaved"):
            validate_prometheus_text(text)

    def test_rejects_samples_before_type(self):
        with pytest.raises(ValueError, match="before its TYPE"):
            validate_prometheus_text("repro_x_total 1\n")

    def test_rejects_duplicate_series(self):
        text = ("# TYPE repro_x_total counter\n"
                "repro_x_total{t=\"a\"} 1\nrepro_x_total{t=\"a\"} 2\n")
        with pytest.raises(ValueError, match="duplicate series"):
            validate_prometheus_text(text)

    def test_rejects_non_cumulative_histogram(self):
        text = ("# TYPE repro_y_seconds histogram\n"
                'repro_y_seconds_bucket{le="1"} 3\n'
                'repro_y_seconds_bucket{le="2"} 2\n'
                'repro_y_seconds_bucket{le="+Inf"} 4\n'
                "repro_y_seconds_sum 1.0\nrepro_y_seconds_count 4\n")
        with pytest.raises(ValueError, match="not cumulative"):
            validate_prometheus_text(text)

    def test_rejects_count_inf_bucket_mismatch(self):
        text = ("# TYPE repro_y_seconds histogram\n"
                'repro_y_seconds_bucket{le="1"} 1\n'
                'repro_y_seconds_bucket{le="+Inf"} 2\n'
                "repro_y_seconds_sum 1.0\nrepro_y_seconds_count 3\n")
        with pytest.raises(ValueError, match="_count"):
            validate_prometheus_text(text)

    def test_rejects_missing_inf_bucket(self):
        text = ("# TYPE repro_y_seconds histogram\n"
                'repro_y_seconds_bucket{le="1"} 1\n'
                "repro_y_seconds_sum 1.0\nrepro_y_seconds_count 1\n")
        with pytest.raises(ValueError, match=r"\+Inf"):
            validate_prometheus_text(text)

    def test_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="malformed"):
            validate_prometheus_text("# TYPE repro_x_total counter\n"
                                     "repro_x_total{t=a} 1\n")
        with pytest.raises(ValueError, match="unparseable"):
            validate_prometheus_text("# TYPE repro_x_total counter\n"
                                     "repro_x_total one\n")

    def test_naive_concatenation_of_shared_names_is_rejected(self):
        # The exact failure mode render_registries exists to fix: two
        # registries sharing a family name, concatenated verbatim.
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("repro_requests_total").inc(1)
        second.counter("repro_requests_total").inc(2)
        broken = first.render_text() + second.render_text()
        with pytest.raises(ValueError):
            validate_prometheus_text(broken)


class TestRenderUnderConcurrentWrites:
    def test_every_scrape_is_valid_while_observers_hammer(self):
        """A scrape racing live ``observe()`` calls must never render a
        histogram whose +Inf cumulative disagrees with its ``_count`` —
        the torn-read shape a strict scraper rejects."""
        registry = MetricsRegistry()
        family = registry.histogram("repro_race_seconds", "contended",
                                    ("worker",))
        stop = threading.Event()

        def hammer(worker):
            child = family.labels(worker=str(worker))
            value = 0.0
            while not stop.is_set():
                value = (value + 0.37) % 8.0
                child.observe(value)

        threads = [threading.Thread(target=hammer, args=(n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                families = validate_prometheus_text(registry.render_text())
                assert families["repro_race_seconds"] == "histogram"
        finally:
            stop.set()
            for thread in threads:
                thread.join(5)
