"""Tests of content fingerprints and the session cache's keying/invalidation.

The correctness contract of every session-cache layer is *keying by
content*: equal content must hit, any observable difference — a mutated
value, a different configuration, a different operation — must miss.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FedexConfig, config_signature, step_signature
from repro.dataframe import Column, Comparison, DataFrame
from repro.operators import ExploratoryStep, Filter, GroupBy
from repro.session import CacheStore, ExplanationSession, SessionCache, measured_bytes


# ----------------------------------------------------------------- fingerprints
class TestColumnFingerprint:
    def test_equal_content_equal_fingerprint(self):
        first = Column("x", np.asarray([1.0, 2.0, 3.0]))
        second = Column("x", np.asarray([1.0, 2.0, 3.0]))
        assert first is not second
        assert first.fingerprint() == second.fingerprint()

    def test_value_change_changes_fingerprint(self):
        first = Column("x", np.asarray([1.0, 2.0, 3.0]))
        second = Column("x", np.asarray([1.0, 2.0, 4.0]))
        assert first.fingerprint() != second.fingerprint()

    def test_name_and_kind_participate(self):
        values = np.asarray([1.0, 2.0])
        assert Column("x", values).fingerprint() != Column("y", values).fingerprint()

    def test_in_place_mutation_changes_fingerprint(self):
        column = Column("x", np.asarray([1.0, 2.0, 3.0]))
        before = column.fingerprint()
        column.values[0] = 99.0
        assert column.fingerprint() != before

    def test_categorical_none_distinct_from_string_none(self):
        with_none = Column("c", np.asarray(["a", None], dtype=object))
        with_string = Column("c", np.asarray(["a", "None"], dtype=object))
        assert with_none.fingerprint() != with_string.fingerprint()

    def test_categorical_concatenation_boundaries_distinct(self):
        first = Column("c", np.asarray(["ab", "c"], dtype=object))
        second = Column("c", np.asarray(["a", "bc"], dtype=object))
        assert first.fingerprint() != second.fingerprint()

    def test_categorical_encoding_is_injection_proof(self):
        """Values containing separator-looking bytes must not collide."""
        pairs = [
            (["a\x00b"], ["a", "b"]),
            (["a\x00", "b"], ["a", "\x00b"]),
            (["1:a"], ["a"]),
            ([None, "a"], ["N", "a"]),
        ]
        for first_values, second_values in pairs:
            first = Column("c", np.asarray(first_values, dtype=object))
            second = Column("c", np.asarray(second_values, dtype=object))
            assert first.fingerprint() != second.fingerprint(), (first_values, second_values)

    def test_dtype_participates(self):
        as_int = Column("x", np.asarray([1, 2], dtype=np.int64))
        as_float = Column("x", np.asarray([1.0, 2.0]))
        assert as_int.fingerprint() != as_float.fingerprint()


class TestFrameFingerprint:
    def test_round_trip_through_rows(self, tiny_frame):
        rebuilt = DataFrame.from_rows(tiny_frame.to_rows(), tiny_frame.column_names)
        assert rebuilt.fingerprint() == tiny_frame.fingerprint()

    def test_column_order_participates(self):
        first = DataFrame({"a": [1.0], "b": [2.0]})
        second = DataFrame({"b": [2.0], "a": [1.0]})
        assert first.fingerprint() != second.fingerprint()

    def test_mutated_frame_changes_fingerprint(self, tiny_frame):
        before = tiny_frame.fingerprint()
        copy = tiny_frame.copy()
        assert copy.fingerprint() == before
        copy["popularity"].values[0] = -1.0
        assert copy.fingerprint() != before


_numeric_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=0, max_size=30
)
_string_lists = st.lists(
    st.one_of(st.text(max_size=5), st.none()), min_size=0, max_size=30
)


@given(_numeric_lists)
@settings(max_examples=50, deadline=None)
def test_property_numeric_fingerprint_round_trip(values):
    """Rebuilding a column from the same values reproduces the fingerprint."""
    array = np.asarray(values, dtype=float)
    assert Column("v", array).fingerprint() == Column("v", array.copy()).fingerprint()


@given(_string_lists)
@settings(max_examples=50, deadline=None)
def test_property_categorical_fingerprint_round_trip(values):
    array = np.asarray(values, dtype=object)
    assert Column("v", array).fingerprint() == Column("v", array.copy()).fingerprint()


@given(_numeric_lists, st.integers(min_value=0, max_value=29), st.floats(
    min_value=1.0, max_value=10.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_property_numeric_perturbation_changes_fingerprint(values, position, delta):
    """Changing any single value changes the fingerprint."""
    if not values:
        return
    position = position % len(values)
    array = np.asarray(values, dtype=float)
    perturbed = array.copy()
    perturbed[position] += delta
    assert Column("v", array).fingerprint() != Column("v", perturbed).fingerprint()


# -------------------------------------------------------------------- signatures
class TestSignatures:
    def test_step_signature_matches_for_rebuilt_step(self, tiny_frame):
        predicate = Comparison("popularity", ">", 65)
        first = ExploratoryStep([tiny_frame], Filter(predicate))
        second = ExploratoryStep([tiny_frame.copy()], Filter(Comparison("popularity", ">", 65)))
        assert step_signature(first) == step_signature(second)

    def test_step_signature_differs_across_predicates(self, tiny_frame):
        first = ExploratoryStep([tiny_frame], Filter(Comparison("popularity", ">", 65)))
        second = ExploratoryStep([tiny_frame], Filter(Comparison("popularity", ">", 70)))
        assert step_signature(first) != step_signature(second)

    def test_step_signature_differs_across_operations(self, tiny_frame):
        filter_step = ExploratoryStep([tiny_frame], Filter(Comparison("year", ">", 2000)))
        groupby_step = ExploratoryStep([tiny_frame], GroupBy("decade", {"loudness": ["mean"]}))
        assert step_signature(filter_step) != step_signature(groupby_step)

    def test_derived_step_is_keyed_by_lineage_without_applying(self, tiny_frame):
        step = ExploratoryStep([tiny_frame], Filter(Comparison("popularity", ">", 65)))
        signature = step_signature(step)
        assert step._output is None
        assert signature[2] == (tiny_frame.fingerprint(),)
        assert len(signature) == 3

    def test_explicit_output_is_keyed_by_content(self, tiny_frame):
        operation = Filter(Comparison("popularity", ">", 65))
        output = operation.apply([tiny_frame])
        explicit = ExploratoryStep([tiny_frame], operation, output=output)
        derived = ExploratoryStep([tiny_frame], operation)
        assert step_signature(explicit)[3] == output.fingerprint()
        assert step_signature(explicit) != step_signature(derived)

    def test_input_mutated_after_materialisation_is_keyed_by_content(self, tiny_frame):
        """A derived output computed before an in-place input mutation no
        longer derives from the inputs: its key must cover the output."""
        frame = tiny_frame.copy()
        step = ExploratoryStep([frame], Filter(Comparison("popularity", ">", 65)))
        lineage = step_signature(step)
        step.output
        assert step_signature(step) == lineage  # same inputs: still lineage
        frame["popularity"].values[0] += 1.0
        mutated = step_signature(step)
        assert len(mutated) == 4 and mutated[:3] != lineage
        fresh = ExploratoryStep([frame], Filter(Comparison("popularity", ">", 65)))
        assert step_signature(fresh) != mutated

    def test_config_signature_covers_every_field(self):
        base = config_signature(FedexConfig())
        assert config_signature(FedexConfig()) == base
        assert config_signature(FedexConfig(top_k_columns=3)) != base
        assert config_signature(FedexConfig(backend="exact")) != base
        assert config_signature(FedexConfig(set_counts=[5])) != base

    def test_config_signature_is_hashable(self):
        hash(config_signature(FedexConfig(target_columns=["a", "b"])))


# ----------------------------------------------------------- cache invalidation
class TestSessionCacheInvalidation:
    def _step(self, frame):
        return ExploratoryStep([frame], Filter(Comparison("popularity", ">", 65)))

    def test_identical_step_hits(self, spotify_small):
        session = ExplanationSession()
        first = session.explain(self._step(spotify_small))
        second = session.explain(self._step(spotify_small.copy()))
        assert second is first
        assert session.stats.report_hits == 1

    def test_mutated_input_frame_misses(self, spotify_small):
        session = ExplanationSession()
        mutable = spotify_small.copy()
        session.explain(self._step(mutable))
        mutable["popularity"].values[0] += 1.0
        session.explain(self._step(mutable))
        assert session.stats.report_hits == 0
        assert session.stats.report_misses == 2

    def test_different_config_misses(self, spotify_small):
        session = ExplanationSession()
        step = self._step(spotify_small)
        first = session.explain(step)
        second = session.explain(step, config=FedexConfig(top_k_columns=2))
        assert second is not first
        assert session.stats.report_hits == 0

    def test_different_measure_misses(self, spotify_small):
        session = ExplanationSession()
        step = ExploratoryStep([spotify_small], GroupBy("decade", {"loudness": ["mean"]}))
        session.explain(step)
        session.explain(step, measure="exceptionality")
        assert session.stats.report_hits == 0
        assert session.stats.report_misses == 2

    def test_report_lru_eviction(self, spotify_small):
        first_step = self._step(spotify_small)
        second_step = ExploratoryStep(
            [spotify_small], Filter(Comparison("popularity", ">", 70))
        )
        sizes = sorted(measured_bytes(ExplanationSession().explain(step))
                       for step in (first_step, second_step))
        # Room for either report, not for both.
        store = CacheStore(budget_bytes=sizes[1] + sizes[0] // 2)
        session = ExplanationSession(store=store)
        session.explain(first_step)
        session.explain(second_step)  # evicts the first report
        assert store.layer_count("reports") == 1
        session.explain(first_step)
        assert session.stats.report_hits == 0
        assert session.stats.report_misses == 3

    def test_clear_resets_everything(self, spotify_small):
        session = ExplanationSession()
        step = self._step(spotify_small)
        session.explain(step)
        session.clear()
        session.explain(step)
        assert session.stats.report_hits == 0
        assert session.stats.report_misses == 1


class TestPartitionCache:
    def test_partitions_memoized_by_key(self, tiny_frame):
        cache = SessionCache()
        calls = []

        def build():
            calls.append(1)
            return []

        key = (tiny_frame.fingerprint(), "decade", (5, 10), ("frequency",), 0, 2)
        cache.partitions(key, build)
        cache.partitions(key, build)
        assert len(calls) == 1
        assert cache.stats.partition_hits == 1
        assert cache.stats.partition_misses == 1

    def test_partitions_and_structures_are_bounded(self):
        size = measured_bytes(np.zeros(1_000))
        cache = SessionCache(store=CacheStore(budget_bytes=5 * size))
        for index in range(6):
            cache.partitions((f"fp{index}",), lambda: np.zeros(1_000))
            cache._structure((f"s{index}",), lambda: np.zeros(1_000))
        # One LRU across both layers keeps the five newest entries.
        assert cache.store.layer_count("partitions") == 2
        assert cache.store.layer_count("structures") == 3
        assert ("partitions", ("fp3",)) not in cache.store
        assert ("structures", ("s3",)) in cache.store


class TestRequestScopedFingerprints:
    def test_fingerprints_hashed_once_per_request(self, tiny_frame, monkeypatch):
        cache = SessionCache()
        calls = []
        original = Column.fingerprint

        def counting(self):
            calls.append(self.name)
            return original(self)

        monkeypatch.setattr(Column, "fingerprint", counting)
        with cache.request():
            first = cache.frame_fingerprint(tiny_frame)
            second = cache.frame_fingerprint(tiny_frame)
        assert first == second
        assert len(calls) == tiny_frame.num_columns  # one hash per column, not two

    def test_memo_dies_with_the_scope(self, tiny_frame):
        cache = SessionCache()
        with cache.request():
            cache.frame_fingerprint(tiny_frame)
        assert cache._request_frames is None

    def test_outside_scope_recomputes(self, tiny_frame):
        cache = SessionCache()
        assert cache.frame_fingerprint(tiny_frame) == tiny_frame.fingerprint()
