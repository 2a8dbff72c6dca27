"""Mmap-backed frames: immutability, laziness, persisted fingerprints, and
predicates and explanations that match the in-memory frame."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FedexConfig, FedexExplainer
from repro.dataframe import (
    And,
    Between,
    Column,
    Comparison,
    DataFrame,
    IsIn,
    IsNull,
    Not,
    Or,
    RowIndexPredicate,
)
from repro.dataframe.column import FINGERPRINT_STATS
from repro.errors import ColumnError
from repro.session import ExplanationSession
from repro.operators import ExploratoryStep, Filter, GroupBy
from repro.storage import open_dataset, write_dataset


@pytest.fixture
def dataset(tmp_path):
    frame = DataFrame({
        "value": np.asarray([3.0, 1.0, np.nan, 4.0, 1.5, 9.0]),
        "count": np.asarray([5, 3, 8, 1, 2, 9], dtype=np.int64),
        "group": np.asarray(["a", "b", "a", None, "b", "a"], dtype=object),
    })
    return frame, open_dataset(write_dataset(frame, tmp_path / "ds"))


@pytest.fixture
def sorted_dataset(tmp_path):
    frame = DataFrame({
        "v": np.arange(100, dtype=np.int64),
        "f": np.where(np.arange(100) % 7 == 0, np.nan, np.arange(100, dtype=float)),
        "cat": np.asarray([["low", "mid", "high", None][i // 25] for i in range(100)],
                          dtype=object),
    })
    return frame, open_dataset(write_dataset(frame, tmp_path / "ds"))


class TestImmutability:
    def test_numeric_mmap_write_raises(self, dataset):
        _, handle = dataset
        with pytest.raises(ValueError):
            handle.frame()["value"].values[0] = 99.0

    def test_materialised_categorical_write_raises(self, dataset):
        _, handle = dataset
        with pytest.raises(ValueError):
            handle.frame()["group"].values[0] = "zzz"

    def test_copy_is_writable_and_never_leaks_back(self, dataset):
        frame, handle = dataset
        shared = handle.frame()
        copy = shared["value"].copy()
        copy.values[0] = -123.0
        assert shared["value"][0] == 3.0
        assert handle.frame()["value"][0] == 3.0
        # The copy is new content: fresh fingerprint, no persisted shortcut.
        assert copy.fingerprint() != shared["value"].fingerprint()

    def test_derived_frames_are_plain_and_writable(self, dataset):
        _, handle = dataset
        filtered = handle.frame().mask(np.asarray([True, False, True, True, False, True]))
        filtered["value"].values[0] = 42.0  # a slice is a private copy
        assert handle.frame()["value"][0] == 3.0


class TestSharing:
    def test_frames_share_column_objects(self, dataset):
        _, handle = dataset
        first, second = handle.frame(), handle.frame()
        assert first is not second
        for name in first.column_names:
            assert first[name] is second[name]

    def test_structure_caches_shared_across_frames(self, dataset):
        _, handle = dataset
        first = handle.frame()["value"]
        order = first.sorted_order()
        assert handle.frame()["value"].sorted_order() is order


class TestPersistedFingerprints:
    def test_no_full_hash_on_stored_columns(self, dataset):
        frame, handle = dataset
        opened = handle.frame()
        expected = frame.fingerprint()
        FINGERPRINT_STATS.reset()
        assert opened.fingerprint() == expected
        assert FINGERPRINT_STATS.full_hashes == 0
        assert FINGERPRINT_STATS.persisted_hits == 3

    def test_lazy_categorical_hash_without_materialisation(self, dataset):
        _, handle = dataset
        column = handle.column("group")
        assert column._data is None
        column.fingerprint()
        assert column._data is None  # persisted: the values were never built

    def test_writable_backing_disables_shortcut(self):
        backing = np.asarray([1.0, 2.0])
        backing.flags.writeable = False
        column = Column.from_storage("x", "numeric", 2, values=backing,
                                     fingerprint="bogus")
        assert column.fingerprint() == "bogus"
        backing2 = np.asarray([1.0, 2.0])
        column._data = backing2  # simulate the buffer becoming writable
        assert column.fingerprint() == Column("x", backing2).fingerprint()

    def test_from_storage_validation(self):
        with pytest.raises(ColumnError):
            Column.from_storage("x", "numeric", 2)
        with pytest.raises(ColumnError):
            Column.from_storage("x", "numeric", 2, values=np.asarray([1.0, 2.0]))

    def test_warm_session_explain_never_rehashes_dataset(self, dataset):
        """The ROADMAP's warm-path bar: zero full-column hashes on the input."""
        _, handle = dataset
        opened = handle.frame()
        step = ExploratoryStep([opened], GroupBy("group", {"value": ["mean"]}))
        session = ExplanationSession()
        session.explain(step)
        FINGERPRINT_STATS.reset()
        session.explain(step)  # warm: report-memo hit
        assert FINGERPRINT_STATS.persisted_hits >= opened.num_columns
        # Only derived (tiny, aggregate) columns may have been hashed.
        assert FINGERPRINT_STATS.full_hash_max_rows < opened.num_rows


class TestLaziness:
    def test_numeric_columns_map_without_reading(self, dataset):
        _, handle = dataset
        column = handle.column("value")
        assert isinstance(column.values, np.memmap)
        assert len(column) == 6

    def test_len_does_not_materialise(self, dataset):
        _, handle = dataset
        column = handle.column("group")
        assert len(column) == 6
        assert column._data is None


class TestStoredPredicates:
    @pytest.mark.parametrize("predicate", [
        Comparison("v", ">", 89),
        Comparison("v", ">=", 90),
        Comparison("v", "<", 10),
        Comparison("v", "<=", 9),
        Comparison("v", "==", 55),
        Comparison("v", "!=", 55),
        Comparison("v", "==", -3),
        Comparison("f", ">", 95.0),
        Comparison("cat", "==", "high"),
        Comparison("cat", "==", "absent"),
        Comparison("cat", "!=", "mid"),
        Between("v", 20, 30),
        Between("v", 20, 30, inclusive_high=True),
        IsNull("f"),
        IsNull("v"),
        IsNull("cat"),
        IsIn("v", [5, 95]),
        IsIn("cat", ["low", "nope"]),
        IsIn("cat", [None]),
        And([Comparison("v", ">", 80), Comparison("cat", "==", "high")]),
        Or([Comparison("v", "<", 5), Comparison("v", ">", 95)]),
        Not(Comparison("v", ">", 50)),
        RowIndexPredicate([0, 57, 99]),
    ])
    def test_mask_equals_in_memory(self, sorted_dataset, predicate):
        frame, handle = sorted_dataset
        got = handle.frame().predicate_mask(predicate)
        want = np.asarray(predicate.mask(frame), dtype=bool)
        assert np.array_equal(got, want), predicate.describe()

    def test_unknown_column_error_is_preserved(self, sorted_dataset):
        _, handle = sorted_dataset
        with pytest.raises(Exception, match="unknown column"):
            handle.frame().predicate_mask(Comparison("nope", ">", 1))

    def test_type_error_surfaces_identically(self, sorted_dataset):
        frame, handle = sorted_dataset
        predicate = Comparison("v", ">", "not-a-number")
        with pytest.raises(ValueError):
            predicate.mask(frame)
        with pytest.raises(ValueError):
            handle.frame().predicate_mask(predicate)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.one_of(st.integers(0, 20), st.just(None)),
                        min_size=1, max_size=30),
        cats=st.data(),
        predicate=st.one_of(
            st.builds(Comparison, st.just("v"),
                      st.sampled_from([">", ">=", "<", "<=", "==", "!="]),
                      st.integers(-5, 25)),
            st.builds(Between, st.just("v"), st.integers(-5, 25), st.integers(-5, 25)),
            st.builds(IsNull, st.sampled_from(["v", "c"])),
            st.builds(Comparison, st.just("c"), st.sampled_from(["==", "!="]),
                      st.sampled_from(["a", "b", "zz"])),
            st.builds(IsIn, st.just("c"), st.lists(st.sampled_from(["a", "b", None]),
                                                   min_size=1, max_size=3)),
        ),
    )
    def test_mask_matches_in_memory(self, values, cats, predicate, tmp_path_factory):
        n = len(values)
        cat_values = cats.draw(
            st.lists(st.sampled_from(["a", "b", None]), min_size=n, max_size=n)
        )
        frame = DataFrame({
            "v": np.asarray([np.nan if v is None else float(v) for v in values]),
            "c": np.asarray(cat_values, dtype=object),
        })
        target = tmp_path_factory.mktemp("predicates") / "ds"
        handle = open_dataset(write_dataset(frame, target))
        got = handle.frame().predicate_mask(predicate)
        want = np.asarray(predicate.mask(frame), dtype=bool)
        assert np.array_equal(got, want)


class TestExplainOnStoredFrame:
    @staticmethod
    def _assert_same_report(stored, in_memory):
        assert stored.skyline_keys() == in_memory.skyline_keys()
        assert len(stored.all_candidates) == len(in_memory.all_candidates)
        for mine, theirs in zip(stored.all_candidates, in_memory.all_candidates):
            assert mine.key() == theirs.key()
            assert mine.contribution == theirs.contribution

    def test_filter_step_explained_like_in_memory(self, sorted_dataset):
        frame, handle = sorted_dataset
        operation = Filter(Comparison("v", ">=", 60))
        config = FedexConfig(seed=0)
        in_memory = FedexExplainer(config).explain(ExploratoryStep([frame], operation))
        stored = FedexExplainer(config).explain(
            ExploratoryStep([handle.frame()], operation)
        )
        self._assert_same_report(stored, in_memory)

    def test_groupby_pre_filter_explained_like_in_memory(self, sorted_dataset):
        frame, handle = sorted_dataset
        operation = GroupBy("cat", {"f": ["mean"]},
                            pre_filter=Comparison("v", ">=", 80))
        config = FedexConfig(seed=0)
        in_memory = FedexExplainer(config).explain(ExploratoryStep([frame], operation))
        stored = FedexExplainer(config).explain(
            ExploratoryStep([handle.frame()], operation)
        )
        self._assert_same_report(stored, in_memory)
