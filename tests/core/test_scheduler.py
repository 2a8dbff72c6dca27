"""Adversarial test tier of the cost-model scheduler and work-stealing.

The contract under test extends the exact-rerun oracle to *scheduling*:
however the grid is cut (fixed counts, static cost estimates, measured
history), however pairs move between workers (batches, steal-board claims,
mid-steal splits), and even when a thief is SIGKILLed immediately after a
successful steal, the results must be identical to the serial incremental
backend — scheduling may move execution, never change a float.

Covers, per the PR's test-tier brief:

* the batch planner's policy precedence and equal-predicted-cost slicing
  on skewed grids (the whale pair never drags cheap pairs behind it);
* skyline + score equivalence (≤1e-9, in fact bit-identical) under
  adaptive × stealing × shared-structures at 1/2/4 workers, for both the
  process and the thread backend, including a hypothesis sweep;
* crash injection mid-steal: a worker killed right after a successful
  steal orphans its stolen range, which must come back serially and
  bit-identically, with the steal still counted (the board file survives
  the worker);
* the shared structure tier: post-crash replacement pools load published
  structures instead of rebuilding, and a rewritten dataset keys fresh
  entries — never a stale hit;
* measured pair costs flowing context → planner: a second run of the same
  step upgrades the batch policy to ``cost-history``.
"""

from __future__ import annotations

import array
import threading
from concurrent.futures import Future

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ContributionCalculator,
    ExceptionalityMeasure,
    FrequencyPartitioner,
    NumericBinningPartitioner,
    ProcessBackend,
)
from repro.core.backends.base import resolve_flag
from repro.core.backends.costs import (
    PLAN_CLASS_WEIGHTS,
    estimate_pair_cost,
    history_key,
    pair_key,
    plan_batches,
)
from repro.core.backends.incremental import IncrementalBackend
from repro.core.backends.parallel import ParallelBackend
from repro.core.backends.process import shutdown_process_pools
from repro.dataframe import Comparison
from repro.errors import ExplanationError
from repro.operators import ExploratoryStep, Filter
from repro.storage import DatasetStore
from repro.storage.reader import clear_shared_datasets


WORKERS = 2


# ------------------------------------------------------------------- helpers
class _FakePartition:
    def __init__(self, attribute, n_sets=4, input_index=0):
        self.input_index = input_index
        self.method = "frequency"
        self.source_attribute = attribute
        self.n_requested = n_sets
        self.sets = [object()] * n_sets
        self.ignore_set = None


class _FakeFrame:
    def __init__(self, n_rows):
        self.num_rows = n_rows

    def __contains__(self, name):
        return False


class _FakeStep:
    def __init__(self, n_rows):
        self.inputs = [_FakeFrame(n_rows)]


class _FakeInner:
    """plan_class by attribute name; enough surface for the cost model."""

    def __init__(self, classes, n_rows=1_000):
        self.step = _FakeStep(n_rows)
        self._classes = classes

    def plan_class(self, input_index, attribute):
        return self._classes.get(attribute, "slice")


class _CostHistoryContext:
    """The session's pair-cost hooks, minus the session."""

    def __init__(self):
        self.costs = {}

    def pair_costs(self, key):
        return dict(self.costs.get(key, {}))

    def store_pair_costs(self, key, costs):
        self.costs.setdefault(key, {}).update(costs)

    # Structure hooks the embedded incremental backend expects of any
    # context: build-through, no caching (costs are what's under test).
    def row_sources(self, step, build):
        return build(step)

    def groupby_structure(self, step, build):
        return build(step)

    def left_join_structure(self, step, build):
        return build(step)


def _skewed_grid(frame, widths=(2, 3, 4, 5, 6, 7)):
    """Partitions with very different set counts: a cost-skewed grid."""
    partitions = [FrequencyPartitioner().partition(frame, "decade", width)
                  for width in widths]
    partitions.append(NumericBinningPartitioner().partition(frame, "popularity", 8))
    return [(partition, partition.source_attribute) for partition in partitions]


def _reference(step, measure, grid):
    return _run_backend(IncrementalBackend(step, measure), step, measure, grid)


def _run_backend(backend, step, measure, grid):
    calculator = ContributionCalculator(step, measure, backend=backend)
    calculator.prefetch(grid)
    return {
        (id(partition), attribute): calculator.partition_contributions(
            partition, attribute)
        for partition, attribute in grid
    }


@pytest.fixture
def filter_step(spotify_small):
    return ExploratoryStep([spotify_small],
                           Filter(Comparison("popularity", ">", 65)))


# ------------------------------------------------------------- the cost model
class TestCostModel:
    def test_estimates_order_plan_classes(self):
        costs = {name: estimate_pair_cost(name, 4, 1_000)
                 for name in PLAN_CLASS_WEIGHTS}
        assert (costs["exact"] > costs["leftjoin"] > costs["slice"]
                > costs["groupby"] > costs["constant"])
        # Object-dtype targets pay the python-comparison factor.
        assert (estimate_pair_cost("slice", 4, 1_000, object_dtype=True)
                > estimate_pair_cost("slice", 4, 1_000))
        # Even free pairs pay dispatch overhead (no zero-cost batches).
        assert estimate_pair_cost("constant", 1, 0) == 1.0

    def test_policy_precedence(self, monkeypatch):
        inner = _FakeInner({})
        pairs = [(_FakePartition("a"), "a") for _ in range(8)]
        assert plan_batches(pairs, workers=2, inner=inner,
                            shard_batch=3).policy == "fixed"
        monkeypatch.setenv("REPRO_SHARD_BATCH", "2")
        assert plan_batches(pairs, workers=2, inner=inner).policy == "env"
        monkeypatch.delenv("REPRO_SHARD_BATCH")
        assert plan_batches(pairs, workers=2, inner=inner,
                            adaptive=False).policy == "count-auto"
        assert plan_batches(pairs, workers=2, inner=None).policy == "count-auto"
        assert plan_batches(pairs, workers=2, inner=inner).policy == "cost-static"
        assert plan_batches([], workers=2, inner=inner).policy == "empty"

    def test_uniform_costs_degrade_to_count_slices(self):
        inner = _FakeInner({})
        pairs = [(_FakePartition(f"a{i}", n_sets=3), f"a{i}") for i in range(12)]
        plan = plan_batches(pairs, workers=1, inner=inner)
        assert plan.policy == "cost-static"
        assert [len(batch) for batch in plan.batches] == [3, 3, 3, 3]
        assert [pair for batch in plan.batches for pair in batch] == pairs

    def test_whale_pair_never_drags_cheap_pairs(self):
        """The batch holding the expensive pair is cut right after it."""
        inner = _FakeInner({"whale": "exact"})
        pairs = [(_FakePartition(f"a{i}", n_sets=2), f"a{i}") for i in range(5)]
        pairs += [(_FakePartition("whale", n_sets=50), "whale")]
        pairs += [(_FakePartition(f"b{i}", n_sets=2), f"b{i}") for i in range(6)]
        plan = plan_batches(pairs, workers=1, inner=inner)
        assert plan.policy == "cost-static"
        whale_batch = next(batch for batch in plan.batches
                           if any(attr == "whale" for _, attr in batch))
        assert whale_batch[-1][1] == "whale"
        assert [pair for batch in plan.batches for pair in batch] == pairs

    def test_history_upgrades_policy_and_outweighs_estimates(self):
        inner = _FakeInner({})
        whale = _FakePartition("whale", n_sets=2)
        pairs = [(_FakePartition(f"a{i}", n_sets=2), f"a{i}") for i in range(7)]
        pairs.insert(0, (whale, "whale"))
        # Statically the grid is uniform; history says the first pair is
        # 100× the others (the exact-rerun skew the model cannot see).
        history = {pair_key(whale, "whale"): 1.0}
        for partition, attribute in pairs[1:]:
            history[pair_key(partition, attribute)] = 0.01
        plan = plan_batches(pairs, workers=1, inner=inner, history=history)
        assert plan.policy == "cost-history"
        assert plan.batches[0] == [pairs[0]]

    def test_plan_class_answers_for_a_real_backend(self, filter_step):
        inner = IncrementalBackend(filter_step, ExceptionalityMeasure())
        before = inner.plan_class(0, "popularity")
        assert before in PLAN_CLASS_WEIGHTS
        inner._plan_for(0, "popularity")
        # The pre-plan classification and the cached plan's class agree.
        assert inner.plan_class(0, "popularity") == before

    def test_resolve_flag_parses_and_rejects(self, monkeypatch):
        assert resolve_flag(True, "REPRO_TEST_FLAG", False) is True
        assert resolve_flag(False, "REPRO_TEST_FLAG", True) is False
        assert resolve_flag(None, "REPRO_TEST_FLAG", True) is True
        monkeypatch.setenv("REPRO_TEST_FLAG", "0")
        assert resolve_flag(None, "REPRO_TEST_FLAG", True) is False
        monkeypatch.setenv("REPRO_TEST_FLAG", "yes")
        assert resolve_flag(None, "REPRO_TEST_FLAG", False) is True
        monkeypatch.setenv("REPRO_TEST_FLAG", "maybe")
        with pytest.raises(ExplanationError):
            resolve_flag(None, "REPRO_TEST_FLAG", False)


# ------------------------------------------------- skewed-grid equivalence
class TestSkewedGridEquivalence:
    """Scheduling may move execution between workers, never change a float."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("adaptive,steal,shared", [
        (True, False, False),
        (True, True, False),
        (True, True, True),
        (False, True, False),
    ])
    def test_process_backend_matches_serial(self, filter_step, tmp_path,
                                            monkeypatch, workers, adaptive,
                                            steal, shared):
        monkeypatch.setenv("REPRO_STRUCTURE_DIR", str(tmp_path / "shared"))
        measure = ExceptionalityMeasure()
        grid = _skewed_grid(filter_step.primary_input)
        reference = _reference(filter_step, measure, grid)
        backend = ProcessBackend(filter_step, measure, workers=workers,
                                 spill_bytes=0, adaptive_batch=adaptive,
                                 steal=steal, shared_structures=shared)
        results = _run_backend(backend, filter_step, measure, grid)
        assert results == reference  # bit-identical, not approximately
        if workers > 1:
            expected = "cost-static" if adaptive else "count-auto"
            assert backend.stats()["batch_policy"] == expected

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("steal", [False, True])
    def test_thread_backend_matches_serial(self, filter_step, workers, steal):
        measure = ExceptionalityMeasure()
        grid = _skewed_grid(filter_step.primary_input)
        reference = _reference(filter_step, measure, grid)
        backend = ParallelBackend(filter_step, measure, workers=workers,
                                  steal=steal)
        results = _run_backend(backend, filter_step, measure, grid)
        assert results == reference
        stats = backend.stats()
        assert stats["batch_policy"] == "cost-static"
        assert stats["batches_submitted"] > 0

    @settings(max_examples=5, deadline=None)
    @given(threshold=st.integers(min_value=50, max_value=80),
           widths=st.lists(st.integers(min_value=2, max_value=9),
                           min_size=3, max_size=6))
    def test_hypothesis_stealing_is_identical(self, spotify_small, threshold,
                                              widths):
        """Property: any skew, any steal interleaving — identical floats."""
        step = ExploratoryStep(
            [spotify_small], Filter(Comparison("popularity", ">", threshold)))
        measure = ExceptionalityMeasure()
        grid = _skewed_grid(step.primary_input, widths=tuple(widths))
        reference = _reference(step, measure, grid)
        backend = ProcessBackend(step, measure, workers=WORKERS,
                                 spill_bytes=0, steal=True)
        assert _run_backend(backend, step, measure, grid) == reference


# ---------------------------------------------------------- crash mid-steal
class TestCrashMidSteal:
    def test_stolen_range_is_retried_serially_and_identically(self, filter_step):
        """A thief SIGKILLed right after its steal orphans the stolen range;
        the parent must serve every orphaned pair serially, bit-identically,
        and still count the steal (the board file outlives the worker)."""
        measure = ExceptionalityMeasure()
        grid = _skewed_grid(filter_step.primary_input)
        reference = _reference(filter_step, measure, grid)
        # One initial slot forces the second worker's first claim to be a
        # steal (remainder of the whole grid minus one pair, always >= 2).
        backend = ProcessBackend(filter_step, measure, workers=WORKERS,
                                 spill_bytes=0, steal=True,
                                 shard_batch=len(grid),
                                 crash_after_steal=True)
        results = _run_backend(backend, filter_step, measure, grid)
        assert results == reference
        stats = backend.stats()
        assert stats["steals"] >= 1
        assert stats["stolen_pairs"] >= 1
        assert stats["serial_retries"] >= 1
        assert backend._queue_board is None  # board folded and removed

    def test_healthy_steal_run_counts_and_cleans_up(self, filter_step):
        measure = ExceptionalityMeasure()
        grid = _skewed_grid(filter_step.primary_input)
        reference = _reference(filter_step, measure, grid)
        backend = ProcessBackend(filter_step, measure, workers=WORKERS,
                                 spill_bytes=0, steal=True)
        results = _run_backend(backend, filter_step, measure, grid)
        assert results == reference
        stats = backend.stats()
        assert stats["serial_retries"] == 0
        assert stats["shards_completed"] == len(grid)
        assert backend._queue_board is None

    def test_board_folded_when_last_pair_came_with_an_earlier_job(
            self, filter_step, tmp_path):
        """Regression: the last pair the engine consumes may have come home
        with a job that finished while another job is still winding down.
        The board must still be folded (steal counters) and removed once
        that pair is consumed, not leaked until every future happens to be
        drained."""
        backend = ProcessBackend(filter_step, ExceptionalityMeasure(),
                                 workers=WORKERS, steal=True)
        board = tmp_path / "board"
        board.mkdir()
        (board / "state.bin").write_bytes(array.array("q", [0, 0, 3, 5]).tobytes())
        partition = object()
        early, late = Future(), Future()
        early.set_result(({0: "pair result"}, {}))
        backend._queue_board = board
        backend._queue_index = {(id(partition), "energy"): 0}
        backend._queue_futures = [early, late]
        finisher = threading.Timer(0.2, late.set_result, args=(({}, {}),))
        finisher.start()
        try:
            assert backend.partition_contributions(partition, "energy", 0.0) \
                == "pair result"
        finally:
            finisher.join()
        assert backend._queue_board is None and not board.exists()
        stats = backend.stats()
        assert (stats["steals"], stats["stolen_pairs"]) == (3, 5)
        assert stats["serial_retries"] == 0


# ------------------------------------------------------ shared structure tier
class TestSharedStructureTier:
    @pytest.fixture
    def unique_store(self, tmp_path):
        """A dataset no other test's worker has ever seen (unique seed), so
        worker-local L1 caches cannot mask the shared tier."""
        from repro.datasets import load_spotify

        store = DatasetStore(tmp_path / "store")
        store.put("d", load_spotify(n_rows=1_500, seed=104729))
        return store

    def test_post_crash_pool_loads_published_structures(self, unique_store,
                                                        tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STRUCTURE_DIR", str(tmp_path / "shared"))
        measure = ExceptionalityMeasure()
        step = ExploratoryStep([unique_store.open("d")],
                               Filter(Comparison("popularity", ">", 65)))
        grid = _skewed_grid(step.primary_input)
        reference = _reference(step, measure, grid)

        publisher = ProcessBackend(step, measure, workers=WORKERS,
                                   shared_structures=True)
        assert _run_backend(publisher, step, measure, grid) == reference
        assert publisher.stats()["shared_structure_stores"] > 0

        crashing = ProcessBackend(step, measure, workers=WORKERS,
                                  shared_structures=True, crash_shards=1)
        assert _run_backend(crashing, step, measure, grid) == reference

        # The crash discarded the pool: the replacement pool's workers have
        # empty L1 caches and must load from the shared tier instead of
        # rebuilding.
        replacement = ProcessBackend(step, measure, workers=WORKERS,
                                     shared_structures=True)
        assert _run_backend(replacement, step, measure, grid) == reference
        assert replacement.stats()["shared_structure_hits"] > 0

    def test_rewritten_dataset_keys_fresh_entries(self, unique_store, tmp_path,
                                                  monkeypatch):
        from repro.datasets import load_spotify

        shared_dir = tmp_path / "shared"
        monkeypatch.setenv("REPRO_STRUCTURE_DIR", str(shared_dir))
        measure = ExceptionalityMeasure()
        step = ExploratoryStep([unique_store.open("d")],
                               Filter(Comparison("popularity", ">", 65)))
        grid = _skewed_grid(step.primary_input)
        first = ProcessBackend(step, measure, workers=WORKERS,
                               shared_structures=True)
        _run_backend(first, step, measure, grid)
        published = len(list(shared_dir.glob("*.pkl")))
        assert published > 0

        # Rewrite the dataset in place: same name, different content.
        unique_store.put("d", load_spotify(n_rows=1_500, seed=224737))
        clear_shared_datasets()
        shutdown_process_pools()  # fresh workers: no L1 to hide behind
        rewritten = ExploratoryStep([unique_store.open("d")],
                                    Filter(Comparison("popularity", ">", 65)))
        grid2 = _skewed_grid(rewritten.primary_input)
        reference = _reference(rewritten, measure, grid2)
        second = ProcessBackend(rewritten, measure, workers=WORKERS,
                                shared_structures=True)
        assert _run_backend(second, rewritten, measure, grid2) == reference
        stats = second.stats()
        # New fingerprints key new entries: nothing stale is ever served,
        # and the store grows instead of answering.
        assert stats["shared_structure_hits"] == 0
        assert len(list(shared_dir.glob("*.pkl"))) > published


# ------------------------------------------------------------- cost history
class TestCostHistory:
    def test_process_backend_upgrades_to_history_policy(self, filter_step):
        measure = ExceptionalityMeasure()
        grid = _skewed_grid(filter_step.primary_input)
        context = _CostHistoryContext()
        first = ProcessBackend(filter_step, measure, workers=WORKERS,
                               spill_bytes=0, context=context)
        _run_backend(first, filter_step, measure, grid)
        assert first.stats()["batch_policy"] == "cost-static"
        assert context.costs  # measured timings came home and were stored

        second = ProcessBackend(filter_step, measure, workers=WORKERS,
                                spill_bytes=0, context=context)
        results = _run_backend(second, filter_step, measure, grid)
        assert second.stats()["batch_policy"] == "cost-history"
        assert results == _reference(filter_step, measure, grid)

    def test_thread_backend_upgrades_to_history_policy(self, filter_step):
        measure = ExceptionalityMeasure()
        grid = _skewed_grid(filter_step.primary_input)
        context = _CostHistoryContext()
        first = ParallelBackend(filter_step, measure, workers=WORKERS,
                                context=context)
        _run_backend(first, filter_step, measure, grid)
        assert first.stats()["batch_policy"] == "cost-static"
        key = history_key(filter_step)
        assert context.costs.get(key)

        second = ParallelBackend(filter_step, measure, workers=WORKERS,
                                 context=context)
        _run_backend(second, filter_step, measure, grid)
        assert second.stats()["batch_policy"] == "cost-history"

    def test_session_cache_keeps_pair_costs(self):
        from repro.session.cache import SessionCache

        cache = SessionCache()
        key = ("paircosts", "filter", "sig", ("fp",))
        assert cache.pair_costs(key) == {}
        cache.store_pair_costs(key, {("p", "a"): 0.5})
        cache.store_pair_costs(key, {("p", "b"): 0.25})
        # Merge-on-write: later flushes extend, never erase, earlier ones.
        assert cache.pair_costs(key) == {("p", "a"): 0.5, ("p", "b"): 0.25}
