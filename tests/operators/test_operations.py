"""Unit tests for EDA operation specifications."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataframe import Comparison, DataFrame
from repro.dataframe.predicates import And, Between, IsIn, IsNull, RowIndexPredicate
from repro.errors import OperationError
from repro.operators import Diff, Filter, GroupBy, Join, Pivot, Project, RollUp, Union
from repro.operators.operations import MEASURE_DIVERSITY, MEASURE_EXCEPTIONALITY


class TestFilter:
    def test_apply(self, tiny_frame):
        result = Filter(Comparison("popularity", ">", 65)).apply([tiny_frame])
        assert result.num_rows == 4

    def test_default_measure(self):
        assert Filter(Comparison("x", ">", 1)).default_measure == MEASURE_EXCEPTIONALITY

    def test_arity_enforced(self, tiny_frame):
        with pytest.raises(OperationError):
            Filter(Comparison("popularity", ">", 65)).apply([tiny_frame, tiny_frame])

    def test_describe(self):
        assert "popularity > 65" in Filter(Comparison("popularity", ">", 65)).describe()


class TestGroupBy:
    def test_apply_with_aggregations(self, tiny_frame):
        operation = GroupBy("decade", {"loudness": ["mean"]})
        result = operation.apply([tiny_frame])
        assert result.num_rows == 3
        assert "mean_loudness" in result

    def test_pre_filter_applied_before_grouping(self, tiny_frame):
        operation = GroupBy("year", {"loudness": ["mean"]},
                            pre_filter=Comparison("year", ">=", 2010))
        result = operation.apply([tiny_frame])
        assert result.num_rows == 4

    def test_count_only(self, tiny_frame):
        operation = GroupBy("decade")
        result = operation.apply([tiny_frame])
        assert "count" in result

    def test_default_measure(self):
        assert GroupBy("decade").default_measure == MEASURE_DIVERSITY

    def test_aggregated_output_columns(self):
        operation = GroupBy("decade", {"loudness": ["mean", "max"]}, include_count=True)
        assert operation.aggregated_output_columns() == ["mean_loudness", "max_loudness", "count"]

    def test_empty_keys_rejected(self):
        with pytest.raises(OperationError):
            GroupBy([])

    def test_describe_mentions_keys_and_aggregations(self):
        operation = GroupBy(["decade"], {"loudness": ["mean"]})
        text = operation.describe()
        assert "decade" in text and "mean(loudness)" in text


class TestJoinAndUnion:
    def test_join_apply(self):
        left = DataFrame({"k": np.asarray([1.0, 2.0]), "x": [1.0, 2.0]})
        right = DataFrame({"k": np.asarray([2.0, 2.0]), "y": [5.0, 6.0]})
        result = Join("k").apply([left, right])
        assert result.num_rows == 2

    def test_join_arity(self):
        assert Join("k").arity == 2

    def test_join_requires_key(self):
        with pytest.raises(OperationError):
            Join([])

    def test_union_apply(self, tiny_frame):
        result = Union().apply([tiny_frame, tiny_frame])
        assert result.num_rows == 2 * tiny_frame.num_rows

    def test_union_requires_two_inputs(self):
        with pytest.raises(OperationError):
            Union(n_inputs=1)

    def test_union_default_measure(self):
        assert Union().default_measure == MEASURE_EXCEPTIONALITY

    def test_three_way_union(self, tiny_frame):
        result = Union(n_inputs=3).apply([tiny_frame, tiny_frame, tiny_frame])
        assert result.num_rows == 3 * tiny_frame.num_rows


class TestProject:
    def test_apply_keeps_existing_columns(self, tiny_frame):
        result = Project(["decade", "missing"]).apply([tiny_frame])
        assert result.column_names == ["decade"]

    def test_requires_columns(self):
        with pytest.raises(OperationError):
            Project([])


# A derived step is keyed by its operation's signature and input fingerprints
# alone, so two operations that differ in any field affecting the output must
# have different signatures.  Each pair differs in exactly one field.
_SIGNATURE_PAIRS = {
    "filter value": (Filter(Comparison("x", ">", 1)), Filter(Comparison("x", ">", 2))),
    "filter numpy value": (Filter(Comparison("x", ">", 0.1)),
                           Filter(Comparison("x", ">", np.float32(0.1)))),
    "filter column separator": (
        Filter(And([Comparison("a > 1) and (b", ">", 1)])),
        Filter(And([Comparison("a", ">", 1), Comparison("b", ">", 1)])),
    ),
    "filter in-set": (Filter(IsIn("c", ["a", "b"])), Filter(IsIn("c", ["a, b"]))),
    "filter between": (Filter(Between("x", 0, 1)),
                       Filter(Between("x", 0, 1, inclusive_high=True))),
    "filter is-null": (Filter(IsNull("a")), Filter(IsNull("b"))),
    "filter row set": (Filter(RowIndexPredicate([1, 2])), Filter(RowIndexPredicate([1, 3]))),
    "groupby keys": (GroupBy(["a, b"]), GroupBy(["a", "b"])),
    "groupby aggregations": (GroupBy("a", {"x": ["mean"]}), GroupBy("a", {"x": ["sum"]})),
    "groupby count": (GroupBy("a", {"x": ["mean"]}),
                      GroupBy("a", {"x": ["mean"]}, include_count=True)),
    "groupby pre-filter": (GroupBy("a", pre_filter=Comparison("x", ">", 1)),
                           GroupBy("a", pre_filter=Comparison("x", ">", 2))),
    "join how": (Join("k"), Join("k", how="left")),
    "join keys": (Join(["a, b"]), Join(["a", "b"])),
    "union arity": (Union(2), Union(3)),
    "project columns": (Project(["a", "b"]), Project(["b", "a"])),
    "pivot max columns": (Pivot("r", "c", "x", "mean"),
                          Pivot("r", "c", "x", "mean", max_columns=2)),
    "pivot aggregate": (Pivot("r", "c", "x", "mean"), Pivot("r", "c", "x", "sum")),
    "pivot measure": (Pivot("r", "c"), Pivot("r", "c", "x")),
    "diff aggregate": (Diff("k", "x", "mean"), Diff("k", "x", "sum")),
    "rollup aggregations": (RollUp(["r", "c"], {"x": ["mean"]}),
                            RollUp(["r", "c"], {"x": ["sum"]})),
    "rollup count": (RollUp(["r", "c"], {"x": ["mean"]}),
                     RollUp(["r", "c"], {"x": ["mean"]}, include_count=True)),
}


@pytest.mark.parametrize("first, second", list(_SIGNATURE_PAIRS.values()),
                         ids=list(_SIGNATURE_PAIRS))
def test_signature_names_every_field(first, second):
    assert first.signature() != second.signature()


def test_signature_is_stable_across_rebuilds():
    assert (RollUp(["r", "c"], {"x": ["mean"]}).signature()
            == RollUp(["r", "c"], {"x": ["mean"]}).signature())
    assert (Pivot("r", "c", "x", "mean", max_columns=3).signature()
            == Pivot("r", "c", "x", "mean", max_columns=3).signature())
