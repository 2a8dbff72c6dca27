"""Phases 3 and 5 against their reference: identical contributions and charts.

``phase3_reference.py`` keeps the incremental backend's intervention code
as it was before one label per input row replaced the (sets x rows) masks,
and the exceptionality chart that re-ran the operation once per set.
Every comparison demands the same result: raw contributions compare by
``repr`` (same float, same type, ``-0.0`` apart from ``0.0``, NaN equal to
NaN), and chart and caption dicts compare whole.  Hypothesis draws frames
with NaN, ±inf, ``-0.0`` beside ``0.0``, ties, booleans and all-null
columns, and explains filters, unions of mixed kinds, inner and left joins
on keys holding ``None``, and pre-filtered group-bys with all seven
aggregates; every frame also gets a custom partition with an empty set, a
one-row set and a set that repeats a row.  The reference's ``std`` subtracts
moment partials, which is not the exact rerun's float (a constant group's
``np.std`` is rounding noise, not 0.0); the library re-aggregates instead,
so ``std`` is held to the exact rerun backend, bit for bit.  The fixed
cases check every grid pair of the 30 workload queries at the HTTP
benchmark's data sizes.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phase3_reference as reference
from repro.core import (
    DiversityMeasure,
    ExactRerunBackend,
    ExceptionalityMeasure,
    FedexConfig,
    FedexExplainer,
    IncrementalBackend,
    RowPartition,
    RowSet,
    build_candidates,
    build_explanation,
    build_partitions,
    default_partitioners,
    measure_for_step,
)
from repro.core.backends.incremental import row_sources
from repro.dataframe import Comparison, DataFrame, IsIn
from repro.datasets import DatasetRegistry
from repro.operators import ExploratoryStep, Filter, GroupBy, Join, Union
from repro.stats import standardize
from repro.workloads import WORKLOAD

# ±inf aggregates make numpy warn (inf - inf), in the reference as in the library.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

_COUNTS = (2, 5)


def _reprs(values) -> List[str]:
    return [repr(value) for value in values]


def assert_same_contributions(step, measure, partitions, attributes, expected=None) -> None:
    """Batched and one-set contributions of every (partition, attribute) pair.

    ``expected`` is the backend to match, the reference by default.
    """
    library = IncrementalBackend(step, measure)
    if expected is None:
        expected = reference.ReferenceIncrementalBackend(step, measure)
    for partition in partitions:
        for attribute in attributes:
            baseline = measure.score_step(step, attribute)
            where = f"{partition.method} {partition.source_attribute!r} -> {attribute!r}"
            assert (_reprs(library.partition_contributions(partition, attribute, baseline))
                    == _reprs(expected.partition_contributions(partition, attribute, baseline))
                    ), where
            for row_set in partition.sets:
                assert (repr(library.reduced_score(row_set, attribute))
                        == repr(expected.reduced_score(row_set, attribute))), where


def assert_same_chart(step, partition, attribute) -> None:
    """The exceptionality chart and caption of every candidate of the partition."""
    raw = [float(position) for position in range(len(partition.sets))]
    candidates = build_candidates(partition, attribute, 0.5, raw, list(standardize(raw)),
                                  "exceptionality", positive_only=False)
    for candidate in candidates:
        explanation = build_explanation(step, candidate, partition)
        chart, caption = reference._exceptionality_visual(step, candidate, partition)
        assert explanation.caption == caption
        assert repr(explanation.chart.to_dict()) == repr(chart.to_dict())


# ------------------------------------------------------------------ strategies
_NUMBERS = [0.0, -0.0, 1.0, 1.0, 2.5, -3.0, 7.0, 1e16, math.inf, -math.inf, math.nan]
_WORDS = ["a", "b", "b", "é", "", "10", None]


@st.composite
def column_values(draw, n_rows: int, kinds=("numeric", "integer", "boolean", "categorical",
                                             "all_null")) -> np.ndarray:
    kind = draw(st.sampled_from(kinds))
    if kind == "numeric":
        return np.asarray(draw(st.lists(st.sampled_from(_NUMBERS), min_size=n_rows,
                                        max_size=n_rows)), dtype=float)
    if kind == "integer":
        return np.asarray(draw(st.lists(st.integers(-2, 4), min_size=n_rows,
                                        max_size=n_rows)), dtype=np.int64)
    if kind == "boolean":
        return np.asarray(draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)),
                          dtype=bool)
    if kind == "categorical":
        return np.asarray(draw(st.lists(st.sampled_from(_WORDS), min_size=n_rows,
                                        max_size=n_rows)), dtype=object)
    return np.asarray([None] * n_rows, dtype=object) if draw(st.booleans()) \
        else np.full(n_rows, np.nan)


@st.composite
def frames(draw, names=("a", "b", "c"), min_rows: int = 0, **kinds) -> DataFrame:
    n_rows = draw(st.integers(min_value=min_rows, max_value=14))
    return DataFrame({name: draw(column_values(n_rows, **kinds)) for name in names})


@st.composite
def predicates(draw, frame: DataFrame):
    name = draw(st.sampled_from(frame.column_names))
    column = frame[name]
    if column.is_numeric:
        return Comparison(name, draw(st.sampled_from([">", "<=", "!="])),
                          draw(st.sampled_from([-1.0, 0.0, 1.0, 2.0])))
    if column.is_boolean:
        return Comparison(name, "==", draw(st.booleans()))
    return IsIn(name, draw(st.lists(st.sampled_from(["a", "b", "", "10"]), min_size=1,
                                    max_size=2)))


def custom_partition(frame: DataFrame, input_index: int):
    """Disjoint sets: empty, one row, a row repeated, and the rest."""
    n_rows = frame.num_rows
    if n_rows < 3:
        return []
    attribute = frame.column_names[0]
    rows = [[], [0], [1, 2, 1], list(range(3, n_rows))]
    sets = [RowSet(f"s{position}", np.asarray(indices, dtype=np.int64), attribute, attribute,
                   "custom", input_index=input_index)
            for position, indices in enumerate(rows)]
    return [RowPartition(sets=sets, source_attribute=attribute, method="custom",
                         input_index=input_index, n_requested=len(sets))]


def all_partitions(step: ExploratoryStep) -> List[RowPartition]:
    partitions = []
    for input_index, frame in enumerate(step.inputs):
        partitions.extend(build_partitions(frame, frame.column_names, _COUNTS,
                                           default_partitioners(), input_index=input_index))
        partitions.extend(custom_partition(frame, input_index))
    return partitions


def check_exceptionality(step: ExploratoryStep) -> None:
    measure = ExceptionalityMeasure()
    attributes = measure.applicable_columns(step)
    partitions = all_partitions(step)
    assert_same_contributions(step, measure, partitions, attributes)
    for partition in partitions:
        for attribute in attributes:
            assert_same_chart(step, partition, attribute)


# ----------------------------------------------------------------- properties
@given(st.data())
@settings(max_examples=120, deadline=None)
def test_filter_matches_reference(data):
    frame = data.draw(frames())
    predicate = data.draw(predicates(frame))
    check_exceptionality(ExploratoryStep([frame], Filter(predicate)))


@given(frames(), frames())
@settings(max_examples=80, deadline=None)
def test_union_of_mixed_kinds_matches_reference(top, bottom):
    check_exceptionality(ExploratoryStep([top, bottom], Union()))


_KEYS = ["x", "y", "y", None]


@st.composite
def join_inputs(draw):
    sides = []
    for names in (("k", "a", "b"), ("k", "c", "a")):
        frame = draw(frames(names=names[1:]))
        keys = draw(st.lists(st.sampled_from(_KEYS), min_size=frame.num_rows,
                             max_size=frame.num_rows))
        columns = {"k": np.asarray(keys, dtype=object)}
        columns.update({name: frame[name].values for name in frame.column_names})
        sides.append(DataFrame(columns))
    return sides


@given(join_inputs(), st.sampled_from(["inner", "left"]))
@settings(max_examples=100, deadline=None)
def test_join_matches_reference(sides, how):
    check_exceptionality(ExploratoryStep(sides, Join("k", how=how)))


_AGGREGATES = ["mean", "sum", "min", "max", "count", "median", "std"]


@given(frames(names=("k", "v", "w"), min_rows=1, kinds=("numeric", "integer", "categorical")),
       st.sampled_from([None, -1.0, 0.0, 2.0]), st.booleans())
@settings(max_examples=120, deadline=None)
def test_pre_filtered_groupby_matches_reference(frame, threshold, include_count):
    values = frame["v"]
    if not values.is_numeric:
        frame = DataFrame({"k": frame["k"].values, "w": frame["w"].values,
                           "v": np.arange(frame.num_rows, dtype=float) % 3 - 1.0})
    pre_filter = None if threshold is None else Comparison("v", ">", threshold)
    operation = GroupBy("k", {"v": _AGGREGATES}, include_count=include_count,
                        pre_filter=pre_filter)
    step = ExploratoryStep([frame], operation)
    measure = DiversityMeasure()
    partitions = all_partitions(step)
    attributes = measure.applicable_columns(step)
    assert_same_contributions(step, measure, partitions,
                              [attribute for attribute in attributes if attribute != "std_v"])
    assert_same_contributions(step, measure, partitions,
                              [attribute for attribute in attributes if attribute == "std_v"],
                              expected=ExactRerunBackend(step, measure))


# --------------------------------------------------------------- fixed cases
@pytest.fixture(scope="module")
def perfbench_registry() -> DatasetRegistry:
    """The HTTP benchmark's registry (``perfbench/spec.json``)."""
    return DatasetRegistry(seed=0, spotify_rows=8000, bank_rows=5000, sales_rows=20000,
                           products_rows=1500)


def _grid(explainer: FedexExplainer, step: ExploratoryStep, measure):
    """The engine's phase-3 grid for a step: (partition, attribute) pairs."""
    selected = explainer._select_columns(explainer.score_columns(step, measure))
    partitions = explainer._build_partitions(step, selected)
    return [(partition, attribute) for partition in partitions
            for attribute in explainer._attributes_for_partition(step, partition, selected)]


@pytest.mark.parametrize("query", WORKLOAD, ids=[f"Q{query.number}" for query in WORKLOAD])
def test_workload_grid_pairs_match_reference(perfbench_registry, query):
    """Every grid pair of the query: contributions, and its exceptionality charts."""
    explainer = FedexExplainer(FedexConfig())
    step = query.build_step(perfbench_registry)
    measure = measure_for_step(step, explainer.registry, override=query.measure)
    grid = _grid(explainer, step, measure)
    assert grid
    library = IncrementalBackend(step, measure)
    expected = reference.ReferenceIncrementalBackend(step, measure)
    sources = row_sources(step)
    for partition, attribute in grid:
        baseline = measure.score_step(step, attribute)
        raw = library.partition_contributions(partition, attribute, baseline)
        assert _reprs(raw) == _reprs(
            expected.partition_contributions(partition, attribute, baseline)), (
            f"Q{query.number} {partition.method} {partition.source_attribute!r} "
            f"n={partition.n_requested} -> {attribute!r}")
        if measure.name == "exceptionality":
            candidate = build_candidates(partition, attribute, 0.5, raw,
                                         list(standardize(raw)), measure.name,
                                         positive_only=False)[0]
            explanation = build_explanation(step, candidate, partition, sources=sources)
            chart, caption = reference._exceptionality_visual(step, candidate, partition)
            assert explanation.caption == caption
            assert repr(explanation.chart.to_dict()) == repr(chart.to_dict())
