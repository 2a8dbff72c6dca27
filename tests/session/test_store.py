"""Tests of the shared byte-budgeted cache store.

Three families: byte accounting/eviction (the budget is an invariant, not
a hint), per-tenant quotas (one tenant cannot evict the world), and
thread-safety (many tenants hammering one store concurrently, checked
against single-threaded results).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core import FedexConfig, FedexExplainer
from repro.dataframe import Column, Comparison
from repro.operators import ExploratoryStep, Filter
from repro.session import (
    DEFAULT_BUDGET_BYTES,
    CacheStore,
    ExplanationSession,
    SessionCache,
    measured_bytes,
)


# ------------------------------------------------------------------ measuring
class TestMeasuredBytes:
    def test_numpy_arrays_priced_at_nbytes(self):
        small = measured_bytes(np.zeros(10))
        large = measured_bytes(np.zeros(10_000))
        assert large - small >= 9_000 * 8

    def test_nested_containers_count_leaves(self):
        payload = {"a": [np.zeros(1_000)], "b": (np.zeros(1_000),)}
        assert measured_bytes(payload) >= 2 * 8_000

    def test_shared_objects_counted_once(self):
        array = np.zeros(10_000)
        assert measured_bytes([array, array]) < 2 * measured_bytes(array)

    def test_column_counts_values_and_cached_structure(self):
        column = Column("x", np.arange(5_000, dtype=float))
        bare = measured_bytes(column)
        column.sorted_order()
        with_structure = measured_bytes(column)
        assert with_structure >= bare + 5_000 * 8

    def test_cycles_terminate(self):
        payload = {}
        payload["self"] = payload
        assert measured_bytes(payload) > 0


# ---------------------------------------------------------------- byte budget
class TestByteBudget:
    def test_usage_tracks_inserts_and_evictions(self):
        store = CacheStore(budget_bytes=100_000)
        store.put("structures", "a", np.zeros(5_000), nbytes=40_000)
        store.put("structures", "b", np.zeros(5_000), nbytes=40_000)
        assert store.usage_bytes == 80_000
        store.put("structures", "c", np.zeros(5_000), nbytes=40_000)
        assert store.usage_bytes <= 100_000
        assert store.metrics.evictions == 1
        assert store.get("structures", "a") is None  # LRU victim

    def test_read_bumps_recency(self):
        store = CacheStore(budget_bytes=100_000)
        store.put("structures", "a", "va", nbytes=40_000)
        store.put("structures", "b", "vb", nbytes=40_000)
        assert store.get("structures", "a") == "va"  # a is now most recent
        store.put("structures", "c", "vc", nbytes=40_000)
        assert store.get("structures", "a") == "va"
        assert store.get("structures", "b") is None

    def test_replacement_releases_old_bytes(self):
        store = CacheStore(budget_bytes=100_000)
        store.put("reports", "k", "old", nbytes=60_000)
        store.put("reports", "k", "new", nbytes=10_000)
        assert store.usage_bytes == 10_000
        assert store.get("reports", "k") == "new"

    def test_oversize_value_rejected_not_stored(self):
        store = CacheStore(budget_bytes=1_000)
        assert store.put("reports", "big", "value", nbytes=5_000) is False
        assert store.usage_bytes == 0
        assert store.metrics.oversize_rejections == 1
        assert store.get("reports", "big") is None

    def test_eviction_is_global_across_layers(self):
        store = CacheStore(budget_bytes=100_000)
        store.put("reports", "r", "report", nbytes=60_000)
        store.put("partitions", "p", "partition", nbytes=60_000)
        assert store.get("reports", "r") is None
        assert store.get("partitions", "p") == "partition"

    def test_budget_never_exceeded_under_many_inserts(self):
        store = CacheStore(budget_bytes=50_000)
        rng = np.random.default_rng(0)
        for index in range(200):
            store.put("partitions", index, "v", nbytes=int(rng.integers(100, 5_000)))
            assert store.usage_bytes <= 50_000


# -------------------------------------------------------------- tenant quotas
class TestTenantQuotas:
    def test_tenant_overflow_evicts_own_entries_first(self):
        store = CacheStore(budget_bytes=1_000_000, tenant_quota_bytes=50_000)
        store.put("reports", "other", "value", tenant="bob", nbytes=30_000)
        for index in range(5):
            store.put("reports", f"alice-{index}", "value", tenant="alice", nbytes=20_000)
        assert store.tenant_usage("alice") <= 50_000
        # Bob's entry survives even though it is the oldest in the store.
        assert store.get("reports", "other") == "value"
        assert store.metrics.quota_evictions >= 3

    def test_quota_mapping_per_tenant(self):
        store = CacheStore(budget_bytes=1_000_000,
                           tenant_quota_bytes={"small": 10_000})
        store.put("reports", "s1", "v", tenant="small", nbytes=8_000)
        store.put("reports", "s2", "v", tenant="small", nbytes=8_000)
        assert store.tenant_usage("small") <= 10_000
        # Unlisted tenants are bounded only by the global budget.
        store.put("reports", "b1", "v", tenant="big", nbytes=500_000)
        assert store.tenant_usage("big") == 500_000

    def test_value_larger_than_quota_rejected(self):
        store = CacheStore(budget_bytes=1_000_000, tenant_quota_bytes=10_000)
        assert store.put("reports", "k", "v", tenant="alice", nbytes=20_000) is False
        assert store.tenant_usage("alice") == 0

    def test_cross_tenant_reads_are_shared(self):
        """Quotas bound what a tenant pins, not what it can read."""
        store = CacheStore(budget_bytes=1_000_000, tenant_quota_bytes=50_000)
        store.put("reports", "shared", "value", tenant="alice", nbytes=1_000)
        assert store.get("reports", "shared") == "value"  # any caller


# ----------------------------------------------------- tenant recency index
class TestTenantRecencyIndex:
    """The per-tenant LRU index behind O(evicted) quota eviction.

    Quota eviction used to scan the whole store for the tenant's oldest
    entry; it now reads the head of the tenant's own recency index.  The
    index must therefore mirror the global LRU order exactly — including
    read touches, replacements, and cross-tenant replacement — or quota
    eviction would pick the wrong victim.
    """

    def test_quota_eviction_respects_read_recency(self):
        store = CacheStore(budget_bytes=1_000_000, tenant_quota_bytes=50_000)
        store.put("reports", "a", "va", tenant="alice", nbytes=20_000)
        store.put("reports", "b", "vb", tenant="alice", nbytes=20_000)
        assert store.get("reports", "a") == "va"  # a is now most recent
        store.put("reports", "c", "vc", tenant="alice", nbytes=20_000)
        assert store.get("reports", "b") is None  # b was the LRU victim
        assert store.get("reports", "a") == "va"
        assert store.get("reports", "c") == "vc"
        assert store.tenant_usage("alice") <= 50_000

    def test_index_tracks_insert_replace_and_clear(self):
        store = CacheStore(budget_bytes=1_000_000)
        store.put("reports", "k1", "v", tenant="alice", nbytes=10)
        store.put("reports", "k2", "v", tenant="bob", nbytes=10)
        assert list(store._tenant_lru["alice"]) == [("reports", "k1")]
        assert list(store._tenant_lru["bob"]) == [("reports", "k2")]
        # Replacement keeps exactly one index entry (no duplicates, no leak).
        store.put("reports", "k1", "v2", tenant="alice", nbytes=10)
        assert list(store._tenant_lru["alice"]) == [("reports", "k1")]
        store.clear()
        assert store._tenant_lru == {}

    def test_cross_tenant_replacement_moves_the_charge(self):
        store = CacheStore(budget_bytes=1_000_000)
        store.put("reports", "k", "v", tenant="alice", nbytes=10)
        store.put("reports", "k", "v2", tenant="bob", nbytes=10)
        # Alice's (now empty) index is dropped, bob's gained the key.
        assert "alice" not in store._tenant_lru
        assert list(store._tenant_lru["bob"]) == [("reports", "k")]
        assert store.tenant_usage("alice") == 0

    def test_index_consistent_under_concurrent_storm(self):
        """After a mixed get/put storm, index and entry map agree exactly."""
        store = CacheStore(budget_bytes=200_000, tenant_quota_bytes=60_000)
        errors = []
        barrier = threading.Barrier(4)

        def tenant_worker(tenant: str) -> None:
            rng = np.random.default_rng(hash(tenant) % (2**32))
            try:
                barrier.wait()
                for round_index in range(300):
                    key = int(rng.integers(0, 40))
                    if store.get("reports", key) is None:
                        store.put("reports", key, f"{tenant}-{round_index}",
                                  tenant=tenant, nbytes=int(rng.integers(500, 4_000)))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=tenant_worker, args=(f"tenant-{i}",))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        with store._lock.write():
            store._drain_touches_locked()
            derived = {}
            for composite, entry in store._entries.items():
                derived.setdefault(entry.tenant, []).append(composite)
            indexed = {tenant: list(keys)
                       for tenant, keys in store._tenant_lru.items()}
        assert indexed == derived


# ----------------------------------------------------------------- concurrency
class TestConcurrentAccess:
    def test_multithreaded_tenants_hammering_one_store(self):
        """Mixed get/put storm: no exception, invariants hold throughout."""
        store = CacheStore(budget_bytes=200_000, tenant_quota_bytes=80_000)
        errors = []
        barrier = threading.Barrier(6)

        def tenant_worker(tenant: str) -> None:
            rng = np.random.default_rng(hash(tenant) % (2**32))
            try:
                barrier.wait()
                for round_index in range(300):
                    key = int(rng.integers(0, 40))
                    value = store.get("reports", key)
                    if value is None:
                        store.put("reports", key, f"{tenant}-{round_index}",
                                  tenant=tenant, nbytes=int(rng.integers(500, 4_000)))
                    if round_index % 50 == 0:
                        assert store.usage_bytes <= 200_000
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=tenant_worker, args=(f"tenant-{i}",))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.usage_bytes <= 200_000
        for tenant in store.tenants():
            assert store.tenant_usage(tenant) <= 80_000

    def test_singleflight_coalesces_concurrent_misses(self):
        store = CacheStore()
        builds = []
        release = threading.Event()
        started = threading.Event()

        def slow_build():
            builds.append(threading.get_ident())
            started.set()
            release.wait(timeout=5)
            return "result"

        results = []

        def caller():
            results.append(store.singleflight("reports", "key", slow_build))

        threads = [threading.Thread(target=caller) for _ in range(4)]
        threads[0].start()
        started.wait(timeout=5)
        for thread in threads[1:]:
            thread.start()
        release.set()
        for thread in threads:
            thread.join()
        assert results == ["result"] * 4
        assert len(builds) == 1
        assert store.metrics.coalesced_requests == 3

    def test_coalesced_follower_counts_one_lookup(self):
        """Leader and follower each count one store lookup (both missed)
        and one report lookup (a miss for the leader, a hit for the
        follower, which did not compute); the follower's re-read of the
        leader's result is part of its lookup, not a second one."""
        store = CacheStore()
        leader_view = SessionCache(store=store, tenant="alice")
        follower_view = SessionCache(store=store, tenant="bob")
        started, release = threading.Event(), threading.Event()

        def slow_build():
            started.set()
            release.wait(timeout=5)
            return "report"

        results = []
        leader = threading.Thread(
            target=lambda: results.append(leader_view.report_singleflight("key", slow_build)))
        follower = threading.Thread(
            target=lambda: results.append(follower_view.report_singleflight("key", slow_build)))
        leader.start()
        assert started.wait(timeout=5)
        follower.start()
        deadline = time.monotonic() + 5
        while store.metrics.misses < 2 and time.monotonic() < deadline:
            time.sleep(0.001)  # the follower has looked the key up and missed
        release.set()
        leader.join()
        follower.join()
        assert results == ["report", "report"]
        assert store.metrics.coalesced_requests == 1
        assert (store.metrics.hits, store.metrics.misses) == (0, 2)
        assert (leader_view.stats.report_hits, leader_view.stats.report_misses) == (0, 1)
        assert (follower_view.stats.report_hits, follower_view.stats.report_misses) == (1, 0)

    def test_singleflight_leader_failure_unblocks_followers(self):
        store = CacheStore()
        attempts = []
        started = threading.Event()
        release = threading.Event()

        def failing_build():
            attempts.append("leader")
            started.set()
            release.wait(timeout=5)
            raise RuntimeError("leader died")

        def follower_build():
            attempts.append("follower")
            return "fallback"

        outcome = {}

        def leader():
            try:
                store.singleflight("reports", "key", failing_build)
            except RuntimeError:
                outcome["leader"] = "raised"

        def follower():
            outcome["follower"] = store.singleflight("reports", "key", follower_build)

        leader_thread = threading.Thread(target=leader)
        leader_thread.start()
        started.wait(timeout=5)
        follower_thread = threading.Thread(target=follower)
        follower_thread.start()
        release.set()
        leader_thread.join()
        follower_thread.join()
        assert outcome == {"leader": "raised", "follower": "fallback"}

    def test_concurrent_sessions_share_and_agree(self, spotify_small):
        """Tenants explaining the same steps concurrently get identical reports."""
        store = CacheStore()
        thresholds = (60, 65, 70, 75)
        reference = {
            threshold: FedexExplainer(FedexConfig()).explain(
                ExploratoryStep([spotify_small],
                                Filter(Comparison("popularity", ">", threshold)))
            )
            for threshold in thresholds
        }
        failures = []

        def tenant_worker(tenant: str) -> None:
            session = ExplanationSession(store=store, tenant=tenant)
            try:
                for threshold in thresholds:
                    step = ExploratoryStep(
                        [spotify_small], Filter(Comparison("popularity", ">", threshold))
                    )
                    report = session.explain(step)
                    if report.skyline_keys() != reference[threshold].skyline_keys():
                        failures.append((tenant, threshold))
            except Exception as exc:  # pragma: no cover - failure path
                failures.append((tenant, exc))

        threads = [threading.Thread(target=tenant_worker, args=(f"tenant-{i}",))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures


class TestSessionViewOverSharedStore:
    def test_views_share_entries_but_not_stats(self, spotify_small):
        store = CacheStore()
        step = ExploratoryStep([spotify_small], Filter(Comparison("popularity", ">", 65)))
        alice = ExplanationSession(store=store, tenant="alice")
        bob = ExplanationSession(store=store, tenant="bob")
        report = alice.explain(step)
        assert bob.explain(step) is report
        assert alice.stats.report_misses == 1 and alice.stats.report_hits == 0
        assert bob.stats.report_hits == 1 and bob.stats.report_misses == 0

    def test_inserts_charged_to_the_inserting_tenant(self, spotify_small):
        store = CacheStore()
        step = ExploratoryStep([spotify_small], Filter(Comparison("popularity", ">", 65)))
        alice = ExplanationSession(store=store, tenant="alice")
        alice.explain(step)
        assert store.tenant_usage("alice") > 0
        assert store.tenant_usage("bob") == 0

    def test_private_store_is_byte_bounded(self):
        cache = SessionCache()
        store = cache.store
        assert store.budget_bytes == DEFAULT_BUDGET_BYTES
        store.put("reports", ("oldest",), "report", tenant=cache.tenant)
        third = DEFAULT_BUDGET_BYTES // 3
        for layer, key in (("partitions", "a"), ("structures", "b"), ("partitions", "c")):
            store.put(layer, key, "value", nbytes=third)
        # The last put went over the budget: the least recently used entry,
        # a report, made room for a partition.
        assert store.layer_count("reports") == 0
        assert store.metrics.evictions == 1
        assert store.usage_bytes == 3 * third
