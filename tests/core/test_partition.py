"""Unit tests for row partitions (paper §3.5)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phase2_reference as reference
from repro.core import (
    FedexConfig,
    FedexExplainer,
    FrequencyPartitioner,
    ManyToOnePartitioner,
    MappingPartitioner,
    NumericBinningPartitioner,
    RowPartition,
    RowSet,
    build_partitions,
    default_partitioners,
)
from repro.dataframe import Comparison, DataFrame
from repro.errors import PartitionError
from repro.operators import ExploratoryStep, Filter, GroupBy
from repro.serving.protocol import dump_json, report_document
from repro.session import ExplanationSession


@pytest.fixture
def frame() -> DataFrame:
    years = np.asarray([1991, 1992, 1993, 2001, 2002, 2011, 2012, 2013, 2014, 2015], dtype=float)
    decades = np.asarray([f"{int(y) // 10 * 10}s" for y in years], dtype=object)
    return DataFrame({
        "year": years,
        "decade": decades,
        "value": np.linspace(0, 9, 10),
    })


class TestDefinition:
    def test_row_sets_must_be_disjoint(self):
        first = RowSet("a", np.asarray([0, 1]), "x", "x", "frequency")
        second = RowSet("b", np.asarray([1, 2]), "x", "x", "frequency")
        with pytest.raises(PartitionError):
            RowPartition(sets=[first, second], source_attribute="x", method="frequency")

    def test_all_sets_includes_ignore_set(self):
        first = RowSet("a", np.asarray([0]), "x", "x", "frequency")
        ignore = RowSet("rest", np.asarray([1]), "x", "x", "frequency", is_ignore=True)
        partition = RowPartition(sets=[first], ignore_set=ignore, source_attribute="x",
                                 method="frequency")
        assert len(partition.all_sets()) == 2
        assert partition.covered_rows() == 2


class TestFrequencyPartitioner:
    def test_top_values_become_sets(self, frame):
        partition = FrequencyPartitioner().partition(frame, "decade", n_sets=2)
        labels = {row_set.label for row_set in partition.sets}
        assert labels == {"2010s", "1990s"}

    def test_remaining_rows_go_to_ignore_set(self, frame):
        partition = FrequencyPartitioner().partition(frame, "decade", n_sets=2)
        assert partition.ignore_set is not None
        assert partition.ignore_set.size == 2  # the two 2000s rows

    def test_covers_all_rows(self, frame):
        partition = FrequencyPartitioner().partition(frame, "decade", n_sets=2)
        assert partition.covered_rows() == frame.num_rows

    def test_no_ignore_set_when_all_values_kept(self, frame):
        partition = FrequencyPartitioner().partition(frame, "decade", n_sets=3)
        assert partition.ignore_set is None

    def test_numeric_attribute_supported(self, frame):
        partition = FrequencyPartitioner().partition(frame, "year", n_sets=5)
        assert len(partition) == 5

    def test_single_valued_column_returns_none(self):
        frame = DataFrame({"c": np.asarray(["x", "x"], dtype=object)})
        assert FrequencyPartitioner().partition(frame, "c", 5) is None

    def test_missing_attribute_returns_none(self, frame):
        assert FrequencyPartitioner().partition(frame, "nope", 5) is None


class TestNumericBinningPartitioner:
    def test_equal_frequency_bins(self, frame):
        partition = NumericBinningPartitioner().partition(frame, "value", n_sets=5)
        assert len(partition) == 5
        sizes = [row_set.size for row_set in partition.sets]
        assert max(sizes) - min(sizes) <= 1

    def test_bins_cover_all_rows_without_ignore_set(self, frame):
        partition = NumericBinningPartitioner().partition(frame, "value", n_sets=5)
        assert partition.ignore_set is None
        assert partition.covered_rows() == frame.num_rows

    def test_interval_labels(self, frame):
        partition = NumericBinningPartitioner().partition(frame, "value", n_sets=2)
        assert partition.sets[0].interval is not None
        assert partition.sets[0].label.startswith("[")

    def test_categorical_attribute_returns_none(self, frame):
        assert NumericBinningPartitioner().partition(frame, "decade", 5) is None

    def test_missing_values_in_ignore_set(self):
        frame = DataFrame({"x": np.asarray([1.0, 2.0, 3.0, 4.0, np.nan])})
        partition = NumericBinningPartitioner().partition(frame, "x", 2)
        assert partition.ignore_set is not None
        assert partition.ignore_set.size == 1

    def test_constant_column_returns_none(self):
        frame = DataFrame({"x": np.asarray([2.0, 2.0, 2.0])})
        assert NumericBinningPartitioner().partition(frame, "x", 3) is None

    def test_fewer_distinct_values_than_bins(self):
        frame = DataFrame({"x": np.asarray([1.0, 1.0, 2.0, 2.0])})
        partition = NumericBinningPartitioner().partition(frame, "x", 10)
        assert partition is not None
        assert len(partition) == 2


class TestManyToOnePartitioner:
    def test_finds_year_to_decade(self, frame):
        companions = ManyToOnePartitioner().find_companions(frame, "year")
        assert "decade" in companions

    def test_rejects_non_functional_relationships(self, frame):
        # value -> decade is functional here, but decade -> year is not.
        companions = ManyToOnePartitioner().find_companions(frame, "decade")
        assert "year" not in companions

    def test_partition_labels_come_from_companion(self, frame):
        partition = ManyToOnePartitioner().partition(frame, "year", n_sets=5)
        assert partition is not None
        assert partition.source_attribute == "year"
        assert all(row_set.label_attribute == "decade" for row_set in partition.sets)
        assert {row_set.label for row_set in partition.sets} == {"1990s", "2000s", "2010s"}

    def test_no_companion_returns_none(self):
        frame = DataFrame({
            "a": np.asarray([1.0, 2.0, 3.0]),
            "b": np.asarray([4.0, 5.0, 6.0]),
        })
        assert ManyToOnePartitioner().partition(frame, "a", 3) is None

    def test_identical_cardinality_not_coarser(self):
        frame = DataFrame({
            "a": np.asarray(["x", "y", "z"], dtype=object),
            "b": np.asarray(["p", "q", "r"], dtype=object),
        })
        assert ManyToOnePartitioner().find_companions(frame, "a") == []


class TestMappingPartitioner:
    def test_custom_buckets(self, frame):
        partitioner = MappingPartitioner("era", lambda year: "old" if year < 2000 else "new")
        partition = partitioner.partition(frame, "year", n_sets=5)
        assert {row_set.label for row_set in partition.sets} == {"old", "new"}

    def test_none_goes_to_ignore_set(self, frame):
        partitioner = MappingPartitioner("era", lambda year: None if year < 2000 else "new")
        partition = partitioner.partition(frame, "year", n_sets=5)
        assert partition is None or partition.ignore_set is not None

    def test_single_bucket_returns_none(self, frame):
        partitioner = MappingPartitioner("era", lambda year: "all")
        assert partitioner.partition(frame, "year", 5) is None


class TestBuildPartitions:
    def test_all_methods_contribute(self, frame):
        partitions = build_partitions(frame, ["year"], [5], default_partitioners())
        methods = {partition.method for partition in partitions}
        assert methods == {"frequency", "binning", "many_to_one"}

    def test_duplicate_partitions_removed(self, frame):
        partitions = build_partitions(frame, ["decade"], [3, 10], default_partitioners(("frequency",)))
        # 3 and 10 requested sets collapse to the same 3-value partition.
        assert len(partitions) == 1

    def test_low_cardinality_attributes_skipped(self):
        frame = DataFrame({"c": np.asarray(["x", "x", "x"], dtype=object)})
        assert build_partitions(frame, ["c"], [5], default_partitioners()) == []

    def test_unknown_method_rejected(self):
        with pytest.raises(PartitionError):
            default_partitioners(("nope",))

    def test_every_count_served_by_one_call(self, frame):
        for partitioner in default_partitioners():
            together = partitioner.partition_counts(frame, "year", (2, 5, 10))
            one_by_one = [partitioner.partition(frame, "year", n_sets) for n_sets in (2, 5, 10)]
            assert [None if p is None else [(s.label, s.indices.tolist()) for s in p.all_sets()]
                    for p in together] == \
                [None if p is None else [(s.label, s.indices.tolist()) for s in p.all_sets()]
                 for p in one_by_one]

    def test_companions_searched_once_per_attribute(self, frame):
        calls = []

        class Counting(ManyToOnePartitioner):
            def find_companions(self, frame, attribute):
                calls.append(attribute)
                return super().find_companions(frame, attribute)

        build_partitions(frame, ["year", "value"], [2, 5, 10], [Counting()])
        assert calls == ["year", "value"]

    def test_custom_partitioner_called_once_per_count(self, frame):
        counts = []

        class Halves(MappingPartitioner):
            def partition(self, frame, attribute, n_sets, input_index=0):
                counts.append(n_sets)
                return super().partition(frame, attribute, n_sets, input_index)

        halves = Halves("half", lambda year: "old" if year < 2005 else "new")
        partitions = build_partitions(frame, ["year"], [2, 5], [halves])
        assert counts == [2, 5]
        assert len(partitions) == 1

    def test_row_set_key_is_hashable(self, frame):
        partition = FrequencyPartitioner().partition(frame, "decade", 3)
        keys = {row_set.key() for row_set in partition.sets}
        assert len(keys) == 3


class TestInfinities:
    """``±inf`` values get labels and sit in the outer bins."""

    def test_frequency_labels_render_infinities(self):
        frame = DataFrame({"x": np.asarray([1.0, np.inf, np.inf, -np.inf, 2.0])})
        partition = FrequencyPartitioner().partition(frame, "x", 5)
        assert [row_set.label for row_set in partition.sets] == ["inf", "-inf", "1", "2"]

    def test_infinities_extend_the_outer_bins(self):
        frame = DataFrame({"x": np.asarray([1, 2, 3, 4, np.inf, np.inf, -np.inf, 5])})
        partition = NumericBinningPartitioner().partition(frame, "x", 3)
        assert [row_set.label for row_set in partition.sets] == [
            "[-inf, 2.33)", "[2.33, 3.67)", "[3.67, inf]"]
        assert [row_set.indices.tolist() for row_set in partition.sets] == [
            [0, 1, 6], [2], [3, 4, 5, 7]]
        assert partition.sets[0].interval[0] == -math.inf
        assert partition.sets[-1].interval[1] == math.inf

    def test_binning_needs_two_distinct_finite_values(self):
        frame = DataFrame({"x": np.asarray([5.0, 5.0, np.inf, -np.inf, np.nan])})
        assert NumericBinningPartitioner().partition(frame, "x", 3) is None
        assert FrequencyPartitioner().partition(frame, "x", 3) is not None

    @given(st.lists(st.sampled_from([-2.5, 0.0, 1.0, 3.0, 7.25, 1e16, np.nan, np.inf, -np.inf]),
                    max_size=30),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=300, deadline=None)
    def test_binning_sets_hold_their_intervals(self, values, n_sets):
        frame = DataFrame({"x": np.asarray(values, dtype=float)})
        partition = NumericBinningPartitioner().partition(frame, "x", n_sets)
        if not any(math.isinf(value) for value in values):
            expected = reference.NumericBinningPartitioner().partition(frame, "x", n_sets)
            assert (partition is None) == (expected is None)
            if partition is not None:
                assert [(s.label, s.interval, s.indices.tolist()) for s in partition.all_sets()] \
                    == [(s.label, s.interval, s.indices.tolist()) for s in expected.all_sets()]
        if partition is None:
            return
        column = np.asarray(values, dtype=float)
        for row_set in partition.sets:
            low, high = row_set.interval
            assert "nan" not in row_set.label
            assert np.all((low <= column[row_set.indices]) & (column[row_set.indices] <= high))

    @pytest.mark.parametrize("route", ["explainer", "session"])
    @pytest.mark.parametrize("kind", ["filter", "groupby"])
    def test_explain_with_infinite_values(self, route, kind):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 20, 400).astype(float)
        x[::17] = np.inf
        x[::23] = -np.inf
        frame = DataFrame({
            "x": x,
            "y": rng.normal(size=400),
            "g": np.asarray(rng.choice(["a", "b", "c"], 400), dtype=object),
        })
        operation = Filter(Comparison("x", ">", 5)) if kind == "filter" \
            else GroupBy("x", {"y": ["mean"]})
        step = ExploratoryStep([frame], operation)
        if route == "explainer":
            report = FedexExplainer(FedexConfig()).explain(step)
        else:
            report = ExplanationSession().explain(step)
        labels = {candidate.row_set.label for candidate in report.all_candidates
                  if candidate.row_set.source_attribute == "x"}
        assert any("inf" in label for label in labels)
        assert not any("nan" in label for label in labels)
        dump_json(report_document(report))
