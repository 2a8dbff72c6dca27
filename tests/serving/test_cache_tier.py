"""The shared cache tier: offers, lookups, epoch invalidation, store hooks."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Comparison, DataFrame, DatasetStore, ExploratoryStep, Filter
from repro.serving import SharedCacheTier
from repro.session import CacheStore


@pytest.fixture
def tier(tmp_path):
    return SharedCacheTier(tmp_path / "tier")


class TestEntries:
    def test_offer_then_lookup_roundtrips(self, tier):
        assert tier.offer("reports", ("key", 1), {"answer": 42}, nbytes=128)
        value, nbytes = tier.lookup("reports", ("key", 1))
        assert value == {"answer": 42}
        assert nbytes == 128
        assert tier.stats["offers"] == 1
        assert tier.stats["hits"] == 1

    def test_missing_key_is_none(self, tier):
        assert tier.lookup("reports", "never-offered") is None

    def test_non_served_layers_rejected_cheaply(self, tier):
        """The tier shares reports only; "scores" was a served layer once."""
        for layer in ("partitions", "structures", "scores"):
            assert not tier.offer(layer, "k", "v")
            assert tier.lookup(layer, "k") is None
        assert tier.entry_count() == 0

    def test_first_writer_wins(self, tier):
        assert tier.offer("reports", "k", "first")
        assert not tier.offer("reports", "k", "second")
        value, _ = tier.lookup("reports", "k")
        assert value == "first"

    def test_oversized_values_skipped(self, tmp_path):
        small = SharedCacheTier(tmp_path / "small", max_value_bytes=64)
        assert not small.offer("reports", "big", "x", nbytes=1_000_000)
        assert not small.offer("reports", "blob", "y" * 10_000)  # blob > cap
        assert small.stats["skipped"] == 2

    def test_unpicklable_values_and_keys_degrade_to_miss(self, tier):
        lock = threading.Lock()  # unpicklable
        assert not tier.offer("reports", "k", lock)
        assert tier.lookup("reports", lock) is None  # unpicklable key

    def test_corrupt_entry_is_a_miss(self, tier):
        tier.offer("reports", "k", "value")
        (path,) = (tier.root / tier.epoch_token()).glob("*.pkl")
        path.write_bytes(b"not a pickle")
        assert tier.lookup("reports", "k") is None


class TestEpochs:
    def _store(self, tmp_path):
        frame = DataFrame({"x": np.arange(100, dtype=float)})
        store = DatasetStore(tmp_path / "data")
        store.put("numbers", frame)
        return store, frame

    def test_epoch_reflects_dataset_versions(self, tmp_path):
        store, frame = self._store(tmp_path)
        tier = SharedCacheTier(tmp_path / "tier", dataset_store=store,
                               epoch_ttl_s=0.0)
        first = tier.epoch_token()
        assert first.startswith("epoch-")
        assert tier.epoch_token() == first  # stable while data is stable

    def test_rewriting_a_dataset_moves_the_epoch(self, tmp_path):
        store, frame = self._store(tmp_path)
        tier = SharedCacheTier(tmp_path / "tier", dataset_store=store,
                               epoch_ttl_s=0.0)
        tier.offer("reports", "k", "stale-answer")
        before = tier.epoch_token()

        rewritten = DataFrame({"x": np.arange(200, dtype=float)})
        store.put("numbers", rewritten)

        after = tier.epoch_token()
        assert after != before
        # The entry belonged to the old epoch: fleet-wide invalidation.
        assert tier.lookup("reports", "k") is None

    def test_another_processes_rewrite_is_observed(self, tmp_path):
        """The epoch must be computed from manifests fresh on disk, not
        from this process's cached dataset handles."""
        store, frame = self._store(tmp_path)
        tier = SharedCacheTier(tmp_path / "tier", dataset_store=store,
                               epoch_ttl_s=0.0)
        store.dataset("numbers")  # populate the handle cache
        before = tier.epoch_token()

        writer = DatasetStore(tmp_path / "data")  # a second "process"
        writer.put("numbers", DataFrame({"x": np.arange(50, dtype=float)}))
        writer.close()

        assert tier.epoch_token() != before

    def test_ttl_caches_the_token(self, tmp_path):
        store, _ = self._store(tmp_path)
        tier = SharedCacheTier(tmp_path / "tier", dataset_store=store,
                               epoch_ttl_s=60.0)
        tier.epoch_token()
        refreshes = tier.stats["epoch_refreshes"]
        for _ in range(10):
            tier.epoch_token()
        assert tier.stats["epoch_refreshes"] == refreshes

    def test_sweep_removes_stale_epochs(self, tmp_path):
        store, _ = self._store(tmp_path)
        tier = SharedCacheTier(tmp_path / "tier", dataset_store=store,
                               epoch_ttl_s=0.0)
        tier.offer("reports", "k", "v")
        store.put("numbers", DataFrame({"x": np.arange(7, dtype=float)}))
        tier.offer("reports", "k", "v2")
        assert tier.sweep() == 1
        assert tier.entry_count() == 1  # current epoch untouched
        value, _ = tier.lookup("reports", "k")
        assert value == "v2"


class TestCacheStoreIntegration:
    def test_local_miss_promotes_from_tier(self, tier):
        writer = CacheStore(tier=tier)
        writer.put("reports", "q1", {"score": 0.9}, tenant="alice")
        assert tier.entry_count() == 1

        reader = CacheStore(tier=tier)  # a different replica's store
        assert reader.get("reports", "q1") == {"score": 0.9}
        assert reader.metrics.as_dict()["tier_hits"] == 1
        # Promoted entries live under the shared pseudo-tenant locally...
        assert reader.tenant_usage(CacheStore.SHARED_TENANT) > 0
        # ...and are served from local memory (no tier read) from then on.
        hits_before = tier.stats["hits"]
        assert reader.get("reports", "q1") == {"score": 0.9}
        assert tier.stats["hits"] == hits_before

    def test_tier_miss_counted_once_per_lookup(self, tier):
        store = CacheStore(tier=tier)
        assert store.get("reports", "absent") is None
        assert store.metrics.as_dict()["tier_misses"] == 1

    def test_promoted_entries_are_not_reoffered(self, tier):
        writer = CacheStore(tier=tier)
        writer.put("reports", "q1", "value")
        reader = CacheStore(tier=tier)
        reader.get("reports", "q1")
        # The promotion inserted locally under the shared tenant; a
        # re-offer would be a wasted disk write (first writer already won).
        assert reader.metrics.as_dict()["tier_offers"] == 0

    def test_tier_failure_degrades_to_plain_miss(self, tier):
        class ExplodingTier:
            def lookup(self, layer, key):
                raise OSError("disk gone")

            def offer(self, layer, key, value, nbytes=None):
                raise OSError("disk gone")

        store = CacheStore(tier=ExplodingTier())
        assert store.get("reports", "q") is None
        assert store.put("reports", "q", "v")  # insert still succeeds
        assert store.get("reports", "q") == "v"

    def test_cross_store_report_reuse_end_to_end(self, tmp_path, spotify_small):
        """Two sessions over two stores sharing one tier: the second
        session's report comes from the tier, not recomputation."""
        from repro import ExplanationSession, FedexConfig

        data_store = DatasetStore(tmp_path / "data")
        data_store.put("spotify", spotify_small)
        tier = SharedCacheTier(tmp_path / "tier", dataset_store=data_store)

        def explain_once(store):
            session = ExplanationSession(config=FedexConfig(seed=0),
                                         store=store)
            frame = data_store.open("spotify")
            step = ExploratoryStep([frame],
                                   Filter(Comparison("popularity", ">", 70)))
            return session.explain(step)

        first = explain_once(CacheStore(tier=tier))
        assert tier.entry_count() > 0

        second_store = CacheStore(tier=tier)
        second = explain_once(second_store)
        assert second_store.metrics.as_dict()["tier_hits"] > 0
        assert second.skyline_keys() == first.skyline_keys()
