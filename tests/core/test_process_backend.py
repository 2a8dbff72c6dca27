"""Adversarial test tier of the process-pool contribution backend.

The contract under test is the exact-rerun oracle extended across process
boundaries: whatever the worker count, however inputs travel (descriptor,
spill, serial fallback), and *even when workers are killed mid-grid*, the
results must be identical to the serial incremental backend — grid sharding
may move execution between processes, never change a float.

Covers, per the PR's test-tier brief:

* descriptor round-trips (frame → descriptor → worker frame) preserving
  fingerprints, values, kinds — including hypothesis property tests;
* hypothesis determinism at 1/2/4 process workers;
* worker-crash injection: a SIGKILLed child must yield results identical to
  a never-crashed run, and the shared pool must recover afterwards;
* spill-threshold boundary cases (empty frame, single row, all-categorical);
* zero full-column re-hashes inside workers for store-backed frames;
* service/session routing of stored datasets across the process pool.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ContributionCalculator,
    DiversityMeasure,
    ExceptionalityMeasure,
    FedexConfig,
    FedexExplainer,
    FrequencyPartitioner,
    NumericBinningPartitioner,
    ProcessBackend,
    available_backends,
)
from repro.core.backends.base import iter_shard_batches, resolve_shard_batch
from repro.core.backends.process import (
    PROCESS_STATS,
    _probe_descriptor,
    frame_nbytes,
    process_pool,
    spill_descriptor,
)
from repro.dataframe import Column, Comparison, DataFrame
from repro.errors import ExplanationError, StorageError
from repro.operators import ExploratoryStep, Filter, GroupBy, Join, Union
from repro.service import ExplanationService
from repro.session import ExplanationSession
from repro.storage import DatasetStore
from repro.storage.reader import clear_shared_datasets, frame_from_descriptor


#: Pool size of the suite (``REPRO_WORKERS`` overrides; CI runs it at 2).
WORKERS = int(os.environ.get("REPRO_WORKERS", "2"))


def _scores(report):
    return {
        c.key(): (c.contribution, c.standardized_contribution)
        for c in report.all_candidates
    }


def _assert_reports_match(reference, other, tolerance: float = 1e-9) -> None:
    assert reference.skyline_keys() == other.skyline_keys()
    ref, oth = _scores(reference), _scores(other)
    assert set(ref) == set(oth)
    for key, (raw, std) in ref.items():
        raw_o, std_o = oth[key]
        assert raw == pytest.approx(raw_o, abs=tolerance)
        assert std == pytest.approx(std_o, abs=tolerance)


def _grid_for(frame):
    partitions = [
        FrequencyPartitioner().partition(frame, "decade", 5),
        NumericBinningPartitioner().partition(frame, "popularity", 5),
    ]
    return [(partition, partition.source_attribute) for partition in partitions]


def _wide_grid(frame, n=7):
    """A grid of ``n`` distinct pairs (the shard-batching tests need width)."""
    partitions = [
        FrequencyPartitioner().partition(frame, "decade", 2 + index % 5)
        for index in range(n)
    ]
    return [(partition, partition.source_attribute) for partition in partitions]


@pytest.fixture
def filter_step(spotify_small):
    return ExploratoryStep([spotify_small], Filter(Comparison("popularity", ">", 65)))


@pytest.fixture(scope="module")
def stored_spotify(tmp_path_factory):
    """A DatasetStore-backed spotify frame (module-scoped; read-only)."""
    from repro.datasets import load_spotify

    store = DatasetStore(tmp_path_factory.mktemp("process-store"))
    store.put("spotify", load_spotify(n_rows=4_000, seed=7))
    return store


# ----------------------------------------------------------------- descriptors
class TestFrameDescriptors:
    def test_store_backed_frame_has_descriptor(self, stored_spotify):
        frame = stored_spotify.open("spotify")
        descriptor = frame.descriptor()
        assert descriptor is not None
        assert descriptor.columns == tuple(frame.column_names)
        assert descriptor.fingerprint == stored_spotify.dataset("spotify").fingerprint

    def test_in_memory_frame_has_no_descriptor(self, tiny_frame):
        assert tiny_frame.descriptor() is None

    def test_derived_frame_has_no_descriptor(self, stored_spotify):
        frame = stored_spotify.open("spotify")
        assert frame.filter(Comparison("popularity", ">", 65)).descriptor() is None
        assert frame.select(["year", "decade"]).descriptor() is None

    def test_roundtrip_shares_buffers_and_fingerprints(self, stored_spotify):
        frame = stored_spotify.open("spotify")
        descriptor = frame.descriptor()
        resolved = DataFrame.from_descriptor(descriptor)
        assert resolved.column_names == frame.column_names
        assert resolved.fingerprint() == frame.fingerprint()
        for name in frame.column_names:
            assert resolved[name].fingerprint() == frame[name].fingerprint()
        # Every resolution in one process shares one Dataset handle — the
        # same column objects, so structure caches accumulate once.
        again = DataFrame.from_descriptor(descriptor)
        for name in frame.column_names:
            assert again[name] is resolved[name]

    def test_column_subset_descriptor(self, stored_spotify):
        dataset = stored_spotify.dataset("spotify")
        descriptor = dataset.descriptor(("year", "popularity"))
        resolved = frame_from_descriptor(descriptor)
        assert resolved.column_names == ["year", "popularity"]
        assert resolved["year"].fingerprint() == dataset.column("year").fingerprint()

    def test_unknown_column_rejected(self, stored_spotify):
        with pytest.raises(StorageError, match="no column"):
            stored_spotify.dataset("spotify").descriptor(("nope",))

    def test_rewritten_dataset_detected(self, tmp_path):
        store = DatasetStore(tmp_path / "store")
        store.put("t", DataFrame({"x": np.asarray([1.0, 2.0, 3.0])}))
        descriptor = store.open("t").descriptor()
        store.put("t", DataFrame({"x": np.asarray([9.0, 8.0, 7.0])}))
        # A fresh process (simulated by dropping the shared handles) must
        # refuse to resolve the stale descriptor against the new content.
        clear_shared_datasets()
        with pytest.raises(StorageError, match="rewritten"):
            frame_from_descriptor(descriptor)

    def test_rewrite_does_not_poison_fresh_descriptors(self, tmp_path):
        """A cached pre-rewrite handle is evicted, not served, for the new
        descriptor — one rewrite must not force every later resolution of
        that path into the mismatch error for the life of the process."""
        store = DatasetStore(tmp_path / "store")
        store.put("t", DataFrame({"x": np.asarray([1.0, 2.0, 3.0])}))
        frame_from_descriptor(store.open("t").descriptor())  # cache the v1 handle
        rewritten = DataFrame({"x": np.asarray([9.0, 8.0, 7.0])})
        store.put("t", rewritten)
        resolved = frame_from_descriptor(store.open("t").descriptor())
        assert resolved.fingerprint() == rewritten.fingerprint()

    @settings(max_examples=25, deadline=None)
    @given(
        numbers=st.lists(
            st.floats(allow_nan=True, allow_infinity=False, width=64),
            min_size=0, max_size=20,
        ),
        labels=st.lists(st.sampled_from(["a", "b", "", "é", None]),
                        min_size=0, max_size=20),
    )
    def test_descriptor_roundtrip_preserves_fingerprints(self, tmp_path_factory,
                                                         numbers, labels):
        """Property: frame → store → descriptor → frame preserves content."""
        n = min(len(numbers), len(labels))
        frame = DataFrame({
            "x": np.asarray(numbers[:n], dtype=float),
            "g": np.asarray(labels[:n], dtype=object),
        })
        store = DatasetStore(tmp_path_factory.mktemp("prop-store"))
        store.put("t", frame)
        resolved = frame_from_descriptor(store.open("t").descriptor())
        assert resolved.fingerprint() == frame.fingerprint()
        for name in frame.column_names:
            assert resolved[name].kind == frame[name].kind
            assert resolved[name].fingerprint() == frame[name].fingerprint()


# ----------------------------------------------------------------------- spill
class TestSpill:
    @pytest.mark.parametrize("columns", [
        # empty frame
        {"x": np.asarray([], dtype=float), "g": np.asarray([], dtype=object)},
        # single row
        {"x": np.asarray([1.5]), "g": np.asarray(["only"], dtype=object)},
        # all-categorical
        {"g": np.asarray(["a", "b", None, "a"], dtype=object),
         "h": np.asarray(["x", "", "y", "x"], dtype=object)},
    ], ids=["empty", "single-row", "all-categorical"])
    def test_boundary_frames_spill_and_resolve(self, columns):
        frame = DataFrame(columns)
        resolved = frame_from_descriptor(spill_descriptor(frame))
        assert resolved.num_rows == frame.num_rows
        assert resolved.fingerprint() == frame.fingerprint()
        for name in frame.column_names:
            assert resolved[name].kind == frame[name].kind
            if frame[name].is_numeric:
                assert resolved[name].tolist() == pytest.approx(
                    frame[name].tolist(), nan_ok=True)
            else:
                assert resolved[name].tolist() == frame[name].tolist()

    def test_spill_is_content_addressed(self):
        frame = DataFrame({"x": np.asarray([1.0, 2.0, 3.0])})
        twin = DataFrame({"x": np.asarray([1.0, 2.0, 3.0])})
        assert spill_descriptor(frame) == spill_descriptor(twin)

    def test_spill_store_evicts_beyond_budget(self, monkeypatch):
        """The spill store is LRU-bounded by bytes; evicted frames re-spill."""
        import pathlib

        import repro.core.backends.process as process_module

        monkeypatch.setattr(process_module, "DEFAULT_SPILL_BUDGET_BYTES", 1)
        frames = [
            DataFrame({"x": np.arange(50, dtype=float) + offset}) for offset in range(3)
        ]
        descriptors = [spill_descriptor(frame) for frame in frames]
        # Budget of 1 byte keeps only the newest dataset on disk.
        assert not pathlib.Path(descriptors[0].path).exists()
        assert pathlib.Path(descriptors[-1].path).exists()
        # An evicted frame simply spills again and resolves to equal content.
        again = spill_descriptor(frames[0])
        assert frame_from_descriptor(again).fingerprint() == frames[0].fingerprint()

    def test_frame_nbytes_estimates(self):
        numeric = DataFrame({"x": np.zeros(100, dtype=np.float64)})
        assert frame_nbytes(numeric) == 800
        categorical = DataFrame({"g": np.asarray(["a"] * 10, dtype=object)})
        assert frame_nbytes(categorical) > 0

    def test_below_threshold_stays_serial(self, filter_step):
        measure = ExceptionalityMeasure()
        backend = ProcessBackend(filter_step, measure, workers=WORKERS)  # default 4 MiB
        calculator = ContributionCalculator(filter_step, measure, backend=backend)
        grid = _grid_for(filter_step.primary_input)
        calculator.prefetch(grid)
        assert backend.shards_submitted == 0
        assert "below" in backend.fallback_reason
        serial = ContributionCalculator(filter_step, measure, backend="incremental")
        for partition, attribute in grid:
            assert calculator.partition_contributions(partition, attribute) == \
                serial.partition_contributions(partition, attribute)

    def test_custom_measure_stays_serial(self, filter_step):
        from repro.core import FunctionMeasure

        measure = FunctionMeasure("custom", lambda inputs, step, output, attr: 1.0)
        backend = ProcessBackend(filter_step, measure, workers=WORKERS, spill_bytes=0)
        backend.prefetch(_grid_for(filter_step.primary_input), {"decade": 1.0,
                                                                "popularity": 1.0})
        assert backend.shards_submitted == 0
        assert "builtin" in backend.fallback_reason


# ------------------------------------------------------------------ sharding
class TestProcessSharding:
    def test_registered_backend(self):
        assert available_backends()["process"] is ProcessBackend
        with pytest.raises(ExplanationError):
            FedexConfig(spill_bytes=-1)
        assert FedexConfig(backend="process", workers=2, spill_bytes=0).spill_bytes == 0

    def test_with_backend_preserves_spill_bytes(self):
        config = FedexConfig(spill_bytes=123)
        assert config.with_backend("process").spill_bytes == 123

    def test_shards_really_cross_processes(self, filter_step):
        measure = ExceptionalityMeasure()
        backend = ProcessBackend(filter_step, measure, workers=WORKERS, spill_bytes=0)
        calculator = ContributionCalculator(filter_step, measure, backend=backend)
        grid = _grid_for(filter_step.primary_input)
        calculator.prefetch(grid)
        for partition, attribute in grid:
            calculator.partition_contributions(partition, attribute)
        stats = backend.stats()
        assert stats["fallback_reason"] is None
        assert stats["shards_submitted"] == len(grid)
        assert stats["shards_completed"] == len(grid)
        assert stats["serial_retries"] == 0
        # And the pool workers are other processes, not us.
        payload = process_pool(WORKERS).submit(_probe_descriptor,
                                               spill_descriptor(filter_step.primary_input)
                                               ).result()
        assert payload["pid"] != os.getpid()

    def test_without_prefetch_runs_serially(self, filter_step):
        """Direct per-pair use (no grid announcement) degrades to the inner backend."""
        measure = ExceptionalityMeasure()
        backend = ProcessBackend(filter_step, measure, workers=WORKERS, spill_bytes=0)
        calculator = ContributionCalculator(filter_step, measure, backend=backend)
        partition = FrequencyPartitioner().partition(filter_step.primary_input,
                                                     "decade", 5)
        serial = ContributionCalculator(filter_step, measure, backend="incremental")
        assert calculator.partition_contributions(partition, "decade") == \
            serial.partition_contributions(partition, "decade")
        assert backend.stats()["shards_submitted"] == 0

    def test_prefetched_futures_pin_their_partitions(self, filter_step):
        """Entries keep the partition alive so a reused id cannot hit a stale future."""
        import gc

        measure = ExceptionalityMeasure()
        backend = ProcessBackend(filter_step, measure, workers=WORKERS, spill_bytes=0)
        calculator = ContributionCalculator(filter_step, measure, backend=backend)
        partition = FrequencyPartitioner().partition(filter_step.primary_input,
                                                     "decade", 5)
        calculator.prefetch([(partition, "decade")])
        pinned_id = id(partition)
        del partition
        gc.collect()
        # The future's entry still holds the partition, so its id stays
        # reserved and no new object can collide with the pending entry.
        entry = backend._futures[(pinned_id, "decade")]
        assert id(entry[0]) == pinned_id

    def test_worker_count_defaults_and_validation(self):
        assert ProcessBackend(None, None, workers=None).workers >= 1
        with pytest.raises(ExplanationError):
            FedexConfig(workers=0)
        assert FedexConfig(workers=3).workers == 3

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial_incremental(self, workers, spotify_small,
                                        products_and_sales_small):
        products, sales = products_and_sales_small
        steps = [
            ExploratoryStep([spotify_small], Filter(Comparison("popularity", ">", 65))),
            ExploratoryStep([spotify_small], GroupBy(
                "decade", {"loudness": ["mean", "median", "std"]}, include_count=True
            )),
            ExploratoryStep([products, sales], Join("item")),
            ExploratoryStep([
                spotify_small.filter(Comparison("year", "<", 1990)),
                spotify_small.filter(Comparison("year", ">=", 1990)),
            ], Union()),
        ]
        for step in steps:
            serial = FedexExplainer(FedexConfig(backend="incremental")).explain(step)
            process = FedexExplainer(FedexConfig(
                backend="process", workers=workers, spill_bytes=0
            )).explain(step)
            _assert_reports_match(serial, process)

    def test_store_backed_step_fans_out(self, stored_spotify):
        frame = stored_spotify.open("spotify")
        step = ExploratoryStep([frame], Filter(Comparison("popularity", ">", 65)))
        measure = ExceptionalityMeasure()
        backend = ProcessBackend(step, measure, workers=WORKERS)
        calculator = ContributionCalculator(step, measure, backend=backend)
        grid = _grid_for(frame)
        calculator.prefetch(grid)
        results = {
            attribute: calculator.partition_contributions(partition, attribute)
            for partition, attribute in grid
        }
        assert backend.stats()["fallback_reason"] is None  # no spill needed
        assert backend.stats()["shards_completed"] == len(grid)
        serial = ContributionCalculator(step, measure, backend="incremental")
        for partition, attribute in grid:
            assert results[attribute] == serial.partition_contributions(partition, attribute)

    @settings(max_examples=8, deadline=None)
    @given(
        threshold=st.integers(min_value=-5, max_value=60),
        workers=st.sampled_from([1, 2, 4]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_hypothesis_determinism(self, threshold, workers, seed):
        """Property: any filter step, any worker count — serial results."""
        rng = np.random.default_rng(seed)
        n = 60
        frame = DataFrame({
            "v": rng.integers(-10, 50, size=n).astype(float),
            "g": np.asarray([f"g{i}" for i in rng.integers(0, 5, size=n)], dtype=object),
            "w": rng.normal(size=n),
        })
        step = ExploratoryStep([frame], Filter(Comparison("v", ">", threshold)))
        serial = FedexExplainer(FedexConfig(backend="incremental")).explain(step)
        process = FedexExplainer(FedexConfig(
            backend="process", workers=workers, spill_bytes=0
        )).explain(step)
        _assert_reports_match(serial, process)


# ------------------------------------------------------------- crash recovery
class TestCrashRecovery:
    def test_killed_worker_yields_identical_results(self, filter_step):
        measure = ExceptionalityMeasure()
        grid = _grid_for(filter_step.primary_input)

        healthy = ProcessBackend(filter_step, measure, workers=WORKERS, spill_bytes=0)
        calculator = ContributionCalculator(filter_step, measure, backend=healthy)
        calculator.prefetch(grid)
        reference = {
            attribute: calculator.partition_contributions(partition, attribute)
            for partition, attribute in grid
        }
        assert healthy.stats()["serial_retries"] == 0

        crashing = ProcessBackend(filter_step, measure, workers=WORKERS,
                                  spill_bytes=0, crash_shards=1)
        crashed = ContributionCalculator(filter_step, measure, backend=crashing)
        crashed.prefetch(grid)
        results = {
            attribute: crashed.partition_contributions(partition, attribute)
            for partition, attribute in grid
        }
        # Bit-identical: the serial retry reruns the same incremental
        # derivations the lost worker would have run.
        assert results == reference
        stats = crashing.stats()
        assert stats["serial_retries"] >= 1
        assert stats["fallback_reason"] is not None

    def test_pool_recovers_after_crash(self, filter_step):
        measure = ExceptionalityMeasure()
        grid = _grid_for(filter_step.primary_input)
        backend = ProcessBackend(filter_step, measure, workers=WORKERS, spill_bytes=0)
        calculator = ContributionCalculator(filter_step, measure, backend=backend)
        calculator.prefetch(grid)
        for partition, attribute in grid:
            calculator.partition_contributions(partition, attribute)
        stats = backend.stats()
        assert stats["serial_retries"] == 0
        assert stats["shards_completed"] == len(grid)

    def test_crashed_explain_end_to_end_still_correct(self, filter_step, monkeypatch):
        """A crash inside a full explain() degrades gracefully, never wrongly."""
        import repro.core.backends.base as base_module

        class CrashingBackend(ProcessBackend):
            def __init__(self, *args, **kwargs):
                kwargs.setdefault("crash_shards", 1)
                super().__init__(*args, **kwargs)

        registry = dict(available_backends())
        registry["process"] = CrashingBackend
        monkeypatch.setattr(base_module, "available_backends", lambda: registry)
        serial = FedexExplainer(FedexConfig(backend="incremental")).explain(filter_step)
        crashed = FedexExplainer(FedexConfig(
            backend="process", workers=WORKERS, spill_bytes=0
        )).explain(filter_step)
        _assert_reports_match(serial, crashed)


# ---------------------------------------------------------------- zero rehash
class TestWorkerFingerprints:
    def test_workers_never_rehash_store_backed_frames(self, stored_spotify):
        """Descriptors resolve through persisted fingerprints: zero full hashes."""
        frame = stored_spotify.open("spotify")
        descriptor = frame.descriptor()
        payload = process_pool(WORKERS).submit(_probe_descriptor, descriptor).result()
        assert payload["full_hashes"] == 0
        assert payload["persisted_hits"] > 0
        assert payload["frame_fingerprint"] == frame.fingerprint()
        parent_columns = {name: frame[name].fingerprint() for name in frame.column_names}
        assert payload["column_fingerprints"] == parent_columns


# -------------------------------------------------------------------- routing
class TestServiceRouting:
    def test_session_routes_process_backend(self, stored_spotify):
        config = FedexConfig(backend="process", workers=WORKERS)
        session = ExplanationSession(config=config)
        frame = session.open(stored_spotify.open("spotify"))
        report = frame.filter(Comparison("popularity", ">", 65)).explain()
        reference = FedexExplainer(FedexConfig()).explain(
            ExploratoryStep([stored_spotify.open("spotify")],
                            Filter(Comparison("popularity", ">", 65)))
        )
        _assert_reports_match(reference, report)

    def test_service_serves_stored_dataset_across_processes(self, stored_spotify):
        config = FedexConfig(backend="process", workers=WORKERS)
        with ExplanationService(config=config,
                                dataset_store=stored_spotify) as service:
            reports = []
            for tenant in ("alice", "bob"):
                wrapped = service.open_dataset(tenant, "spotify")
                reports.append(wrapped.filter(Comparison("popularity", ">", 65)).explain())
            reference = FedexExplainer(FedexConfig()).explain(
                ExploratoryStep([stored_spotify.open("spotify")],
                                Filter(Comparison("popularity", ">", 65)))
            )
            for report in reports:
                _assert_reports_match(reference, report)


# ------------------------------------------------------------ shard batching
class TestShardBatching:
    """Batched dispatch: many grid pairs per submitted job, identical results.

    The contract has three legs: the batch-size policy (explicit >
    automatic), the amortization accounting
    (``batches_submitted`` shrinks while ``shards_submitted`` still counts
    pairs), and — above all — bit-identity: batching may change how many
    futures exist, never a value, even when a worker is killed mid-batch.
    """

    def test_resolve_shard_batch_policy(self):
        # Automatic: ceil(grid / (workers * oversubscription)), at least 1.
        assert resolve_shard_batch(None, 100, 4) == math.ceil(100 / 16)
        assert resolve_shard_batch(None, 3, 4) == 1
        assert resolve_shard_batch(None, 0, 4) == 1
        # Explicit values pass through (clamped to >= 1).
        assert resolve_shard_batch(7, 100, 4) == 7
        assert resolve_shard_batch(0, 100, 4) == 1

    def test_iter_shard_batches_covers_grid_in_order(self):
        grid = list(range(10))
        batches = list(iter_shard_batches(grid, 4))
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert list(iter_shard_batches(grid, 100)) == [grid]
        assert list(iter_shard_batches([], 4)) == []

    def test_batches_amortize_submissions(self, filter_step):
        measure = ExceptionalityMeasure()
        grid = _wide_grid(filter_step.primary_input, n=7)
        backend = ProcessBackend(filter_step, measure, workers=WORKERS,
                                 spill_bytes=0, shard_batch=3)
        calculator = ContributionCalculator(filter_step, measure, backend=backend)
        calculator.prefetch(grid)
        assert backend.batches_submitted == math.ceil(len(grid) / 3)
        assert backend.shards_submitted == len(grid)
        serial = ContributionCalculator(filter_step, measure, backend="incremental")
        for partition, attribute in grid:
            assert calculator.partition_contributions(partition, attribute) == \
                serial.partition_contributions(partition, attribute)
        stats = backend.stats()
        assert stats["fallback_reason"] is None
        assert stats["shards_completed"] == len(grid)

    def test_auto_and_explicit_batch_apply_to_backend(self, filter_step):
        measure = ExceptionalityMeasure()
        grid = _wide_grid(filter_step.primary_input, n=20)
        auto = ProcessBackend(filter_step, measure, workers=WORKERS,
                              spill_bytes=0)
        ContributionCalculator(filter_step, measure, backend=auto).prefetch(grid)
        size = resolve_shard_batch(None, len(grid), WORKERS)
        assert size > 1
        assert auto.stats()["batch_size"] == size
        assert auto.batches_submitted == math.ceil(len(grid) / size)
        explicit = ProcessBackend(filter_step, measure, workers=WORKERS,
                                  spill_bytes=0, shard_batch=len(grid))
        ContributionCalculator(filter_step, measure, backend=explicit).prefetch(grid)
        assert explicit.batches_submitted == 1

    @pytest.mark.parametrize("shard_batch", [1, 3, 7],
                             ids=["batch1", "batch3", "whole-grid"])
    def test_crash_mid_batch_serial_retry_bit_identical(self, filter_step,
                                                        shard_batch):
        """A SIGKILLed worker mid-batch never changes a float, at any size."""
        measure = ExceptionalityMeasure()
        grid = _wide_grid(filter_step.primary_input, n=7)

        healthy = ProcessBackend(filter_step, measure, workers=WORKERS,
                                 spill_bytes=0, shard_batch=shard_batch)
        calculator = ContributionCalculator(filter_step, measure, backend=healthy)
        calculator.prefetch(grid)
        reference = [calculator.partition_contributions(partition, attribute)
                     for partition, attribute in grid]
        assert healthy.stats()["serial_retries"] == 0

        crashing = ProcessBackend(filter_step, measure, workers=WORKERS,
                                  spill_bytes=0, shard_batch=shard_batch,
                                  crash_shards=1)
        crashed = ContributionCalculator(filter_step, measure, backend=crashing)
        crashed.prefetch(grid)
        results = [crashed.partition_contributions(partition, attribute)
                   for partition, attribute in grid]
        assert results == reference
        stats = crashing.stats()
        assert stats["serial_retries"] >= 1
        assert stats["fallback_reason"] is not None

    @settings(max_examples=6, deadline=None)
    @given(
        shard_batch=st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
        threshold=st.integers(min_value=-5, max_value=60),
    )
    def test_hypothesis_any_batch_size_is_identical(self, shard_batch, threshold):
        """Property: any shard_batch — same skylines, same scores."""
        rng = np.random.default_rng(threshold + 11)
        n = 60
        frame = DataFrame({
            "v": rng.integers(-10, 50, size=n).astype(float),
            "g": np.asarray([f"g{i}" for i in rng.integers(0, 5, size=n)],
                            dtype=object),
            "w": rng.normal(size=n),
        })
        step = ExploratoryStep([frame], Filter(Comparison("v", ">", threshold)))
        serial = FedexExplainer(FedexConfig(backend="incremental")).explain(step)
        batched = FedexExplainer(FedexConfig(
            backend="process", workers=WORKERS, spill_bytes=0,
            shard_batch=shard_batch,
        )).explain(step)
        _assert_reports_match(serial, batched)


# ---------------------------------------------------- worker structure cache
class TestWorkerStructureCache:
    """Cross-step structure reuse inside the worker processes.

    The worker-global structure cache is keyed by content fingerprints (the
    SessionCache key layouts), so it survives backend tokens: a session's
    next step grouping the same stored frame by the same keys must reuse the
    structure its previous step's workers derived — and a rewritten dataset
    (new fingerprint) must never be served a stale structure.
    """

    def _run_step(self, step, attribute, partitions, shard_batch=1):
        measure = DiversityMeasure()
        backend = ProcessBackend(step, measure, workers=WORKERS,
                                 shard_batch=shard_batch)
        calculator = ContributionCalculator(step, measure, backend=backend)
        grid = [(partition, attribute) for partition in partitions]
        calculator.prefetch(grid)
        results = [calculator.partition_contributions(partition, attribute)
                   for partition, _ in grid]
        serial = ContributionCalculator(step, measure, backend="incremental")
        assert results == [serial.partition_contributions(partition, attribute)
                           for partition, _ in grid]
        return backend

    def test_structures_reused_across_steps(self, stored_spotify):
        frame = stored_spotify.open("spotify")
        partitions = [FrequencyPartitioner().partition(frame, "decade", 2 + i % 5)
                      for i in range(7)]
        first = ExploratoryStep([frame], GroupBy("decade", {"popularity": ["mean"]}))
        second = ExploratoryStep([frame], GroupBy("decade", {"loudness": ["mean"]}))
        PROCESS_STATS.reset()
        self._run_step(first, "mean_popularity", partitions)
        backend = self._run_step(second, "mean_loudness", partitions)
        # Both steps group the same stored frame by the same keys, so the
        # second step's workers reuse the group structure the first step's
        # workers derived — across backend tokens, inside the same pool.
        assert PROCESS_STATS.structure_hits > 0
        assert backend.stats()["fallback_reason"] is None
        # shard_batch=1 degenerates to one pair per batch — the accounting
        # must agree (amortization is covered by TestShardBatching).
        assert PROCESS_STATS.batches_submitted == PROCESS_STATS.shards_submitted

    def test_rewritten_dataset_builds_fresh_structures(self, tmp_path):
        """A rewrite changes the fingerprint, so no stale structure is served."""
        store = DatasetStore(tmp_path / "store")

        def make_frame(shift):
            n = 400
            return DataFrame({
                "g": np.asarray([f"g{i % 6}" for i in range(n)], dtype=object),
                "v": np.arange(n, dtype=float) + shift,
            })

        store.put("t", make_frame(0.0))
        frame = store.open("t")
        partitions = [FrequencyPartitioner().partition(frame, "g", 2 + i % 4)
                      for i in range(4)]
        step = ExploratoryStep([frame], GroupBy("g", {"v": ["mean"]}))
        # Whole grid in one batch: one worker, so within-run reuse cannot
        # masquerade as (absent) stale reuse in the second pass below.
        self._run_step(step, "mean_v", partitions, shard_batch=len(partitions))

        store.put("t", make_frame(1000.0))
        clear_shared_datasets()
        rewritten = DatasetStore(store.root).open("t")
        partitions = [FrequencyPartitioner().partition(rewritten, "g", 2 + i % 4)
                      for i in range(4)]
        step = ExploratoryStep([rewritten], GroupBy("g", {"v": ["mean"]}))
        PROCESS_STATS.reset()
        self._run_step(step, "mean_v", partitions, shard_batch=len(partitions))
        assert PROCESS_STATS.structure_hits == 0
        assert PROCESS_STATS.structure_misses > 0


# ------------------------------------------------------- trace aggregation
class TestTraceAggregation:
    """Worker-side spans ship home and graft under parent batch spans.

    Workers cannot share the parent's tracer, so each traced batch runs a
    local tracer and returns its span dicts with the batch stats; the
    parent rebuilds the tree (``process.batch`` → ``worker.batch``).  The
    contract: every dispatched batch appears with its worker child, the
    accounted pairs add up to the grid, and a crash mid-grid leaves the
    surviving workers' spans in place next to the serial-retry event.
    """

    def _traced_run(self, filter_step, **backend_kwargs):
        from repro.obs.trace import begin_request, end_request, tracing

        measure = ExceptionalityMeasure()
        grid = _wide_grid(filter_step.primary_input, n=7)
        with tracing(True):
            tracer, token = begin_request()
            try:
                with tracer.span("explain"):
                    backend = ProcessBackend(filter_step, measure,
                                             workers=WORKERS, spill_bytes=0,
                                             **backend_kwargs)
                    calculator = ContributionCalculator(filter_step, measure,
                                                        backend=backend)
                    calculator.prefetch(grid)
                    results = [
                        calculator.partition_contributions(partition, attribute)
                        for partition, attribute in grid
                    ]
            finally:
                trace = end_request(tracer, token)
        return trace, backend, results, grid

    def test_batches_carry_worker_spans(self, filter_step):
        trace, backend, _results, grid = self._traced_run(
            filter_step, shard_batch=2)
        assert backend.stats()["fallback_reason"] is None

        batches = trace.find("process.batch")
        workers = trace.find("worker.batch")
        assert len(batches) == backend.batches_submitted
        assert len(workers) == len(batches)
        batch_ids = {span.span_id for span in batches}
        assert all(span.parent_id in batch_ids for span in workers)
        # Each worker span hangs under the batch that dispatched it, and
        # the accounted pairs cover the grid exactly once on both sides.
        by_parent = {span.parent_id: span for span in workers}
        for batch in batches:
            assert by_parent[batch.span_id].attrs["pairs"] == batch.attrs["pairs"]
        assert sum(span.attrs["pairs"] for span in batches) == len(grid)
        # Worker spans carry the worker's pid — a genuinely foreign process.
        assert all(span.attrs["pid"] != os.getpid() for span in workers)
        # Batch spans are children of the prefetch-time parent inside explain.
        (prefetch,) = trace.find("process.prefetch")
        assert all(span.parent_id is not None for span in batches)
        assert prefetch.attrs["batches"] == len(batches)

    def test_crash_retried_batch_keeps_surviving_spans(self, filter_step):
        trace, backend, results, grid = self._traced_run(
            filter_step, shard_batch=1, crash_shards=1)
        stats = backend.stats()
        assert stats["serial_retries"] >= 1

        # Every *submitted* batch either comes home with its worker span or
        # is serially retried after the pool broke.  (Batches whose submission
        # lost the race against the breakage never enter the pool at all —
        # they fall back serially with neither, so the grid size is not the
        # right-hand side here.)
        workers = trace.find("worker.batch")
        assert len(workers) == stats["batches_submitted"] - stats["serial_retries"]
        retries = trace.find("process.serial_retry")
        assert retries and sum(span.attrs["count"] for span in retries) >= 1
        assert all(span.is_event for span in retries)

        # And the results still match a healthy run (the existing oracle).
        healthy = ProcessBackend(filter_step, ExceptionalityMeasure(),
                                 workers=WORKERS, spill_bytes=0, shard_batch=1)
        calculator = ContributionCalculator(filter_step, ExceptionalityMeasure(),
                                            backend=healthy)
        calculator.prefetch(grid)
        reference = [calculator.partition_contributions(partition, attribute)
                     for partition, attribute in grid]
        assert results == reference

    def test_untraced_run_ships_no_spans(self, filter_step):
        from repro.obs.trace import tracing

        measure = ExceptionalityMeasure()
        grid = _wide_grid(filter_step.primary_input, n=7)
        with tracing(False):
            backend = ProcessBackend(filter_step, measure, workers=WORKERS,
                                     spill_bytes=0, shard_batch=2)
            calculator = ContributionCalculator(filter_step, measure,
                                                backend=backend)
            calculator.prefetch(grid)
            for partition, attribute in grid:
                calculator.partition_contributions(partition, attribute)
        assert backend.stats()["fallback_reason"] is None
        assert not backend._tracer.enabled


# --------------------------------------------------- worker metrics shipping
class TestWorkerMetricsShipping:
    """Worker registry deltas ride home with batch stats and merge under a
    ``worker`` label, so the parent's scrape endpoint and
    ``PROCESS_STATS.snapshot()`` tell one story."""

    def _run(self, filter_step, **backend_kwargs):
        measure = ExceptionalityMeasure()
        grid = _wide_grid(filter_step.primary_input, n=7)
        backend = ProcessBackend(filter_step, measure, workers=WORKERS,
                                 spill_bytes=0, **backend_kwargs)
        calculator = ContributionCalculator(filter_step, measure,
                                            backend=backend)
        calculator.prefetch(grid)
        for partition, attribute in grid:
            calculator.partition_contributions(partition, attribute)
        return backend, grid

    def test_worker_series_land_with_worker_labels(self, filter_step):
        from repro.obs.metrics import REGISTRY, registry_delta

        before = REGISTRY.dump()
        stats_before = PROCESS_STATS.snapshot()
        backend, grid = self._run(filter_step, shard_batch=2)
        assert backend.stats()["fallback_reason"] is None
        delta = registry_delta(before, REGISTRY.dump())
        stats_delta = PROCESS_STATS.delta(stats_before)
        assert stats_delta["serial_retries"] == 0

        batches = delta["repro_worker_batch_seconds"]
        worker_at = batches["labelnames"].index("worker")
        pids = {key[worker_at] for key in batches["series"]}
        # The label is a genuinely foreign pid, one series per worker used.
        assert pids and str(os.getpid()) not in pids
        assert sum(series["count"] for series in batches["series"].values()) \
            == stats_delta["batches_submitted"]

        # The parent-side dispatch histogram covers the same batches and
        # agrees about which workers served them.
        parent = delta["repro_process_batch_seconds"]
        parent_at = parent["labelnames"].index("worker")
        assert {key[parent_at] for key in parent["series"]} == pids
        assert sum(series["count"] for series in parent["series"].values()) \
            == stats_delta["batches_submitted"]

        # Every grid pair was timed exactly once, inside some worker.
        pairs = delta["repro_worker_pair_seconds"]
        assert sum(series["count"] for series in pairs["series"].values()) \
            == len(grid)

    def test_structure_events_agree_with_process_stats(self, filter_step):
        from repro.obs.metrics import REGISTRY, registry_delta

        before = REGISTRY.dump()
        stats_before = PROCESS_STATS.snapshot()
        backend, _grid = self._run(filter_step, shard_batch=2)
        assert backend.stats()["fallback_reason"] is None
        delta = registry_delta(before, REGISTRY.dump())
        stats_delta = PROCESS_STATS.delta(stats_before)

        events = delta["repro_worker_structure_events_total"]
        at = {name: i for i, name in enumerate(events["labelnames"])}

        def shipped(tier, event):
            return int(sum(
                value for key, value in events["series"].items()
                if key[at["tier"]] == tier and key[at["event"]] == event))

        # The scrape endpoint's counter and the snapshot's integers are two
        # views of the same worker-shipped deltas — they must agree exactly.
        assert shipped("local", "hit") == stats_delta["structure_hits"]
        assert shipped("local", "miss") == stats_delta["structure_misses"]
        assert shipped("local", "hit") + shipped("local", "miss") > 0
