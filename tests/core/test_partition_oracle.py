"""Phase 2 against its reference: identical partitions, companions and errors.

``phase2_reference.py`` keeps the row-partition code as it was before it was
vectorised.  Every comparison here demands the exact same result: companion
lists in the same order, and ``build_partitions`` output with the same
partition order, labels, row indices, values and intervals.  Hypothesis
draws frames with NaN/None, ties at the frequency cut, unicode, boolean,
one-value, all-null and empty columns; the fixed cases partition each input
attribute the 30 workload queries partition on.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phase2_reference as reference
from repro.core import (
    FedexConfig,
    ManyToOnePartitioner,
    RowPartition,
    RowSet,
    build_partitions,
    default_partitioners,
)
from repro.dataframe import DataFrame
from repro.errors import PartitionError
from repro.workloads import get_query


def describe(partitions: List[RowPartition]) -> list:
    """Everything a partition carries into a report, in order."""
    described = []
    for partition in partitions:
        sets = []
        for row_set in partition.all_sets():
            indices = np.asarray(row_set.indices)
            sets.append((row_set.label, row_set.source_attribute, row_set.label_attribute,
                         row_set.method, row_set.input_index, row_set.is_ignore,
                         repr(row_set.values), repr(row_set.interval),
                         str(indices.dtype), indices.tolist()))
        described.append((partition.method, partition.source_attribute,
                          partition.input_index, partition.n_requested, sets))
    return described


def assert_same_partitions(frame: DataFrame, attributes, counts, input_index: int = 0,
                           min_group_values: int = 2) -> None:
    expected = reference.build_partitions(
        frame, attributes, counts, reference.default_partitioners(),
        input_index=input_index, min_group_values=min_group_values)
    actual = build_partitions(
        frame, attributes, counts, default_partitioners(),
        input_index=input_index, min_group_values=min_group_values)
    assert describe(actual) == describe(expected)


# ------------------------------------------------------------------ strategies
#: Small alphabets, so values tie at the frequency cut and coarser columns
#: (many-to-one companions) occur by chance as well as by construction.
_NUMBERS = [0.0, 1.0, 2.0, 2.5, -3.0, 10.0, 9.0, 100.0, 1e16, 0.1, math.nan]
_WORDS = ["a", "b", "B", "ab", "é", "日本", "", " ", "10", "9", "a\x00", None]


@st.composite
def frames(draw) -> DataFrame:
    n_rows = draw(st.integers(min_value=0, max_value=24))
    columns = {}
    for index in range(draw(st.integers(min_value=1, max_value=5))):
        kind = draw(st.sampled_from(
            ["numeric", "integer", "categorical", "boolean", "one_value", "all_null", "coarser"]))
        name = f"c{index}"
        if kind == "numeric":
            values = np.asarray(draw(st.lists(st.sampled_from(_NUMBERS),
                                              min_size=n_rows, max_size=n_rows)), dtype=float)
        elif kind == "integer":
            values = np.asarray(draw(st.lists(st.integers(-4, 30), min_size=n_rows,
                                              max_size=n_rows)), dtype=np.int64)
        elif kind == "categorical":
            values = np.asarray(draw(st.lists(st.sampled_from(_WORDS), min_size=n_rows,
                                              max_size=n_rows)), dtype=object)
        elif kind == "boolean":
            values = np.asarray(draw(st.lists(st.booleans(), min_size=n_rows,
                                              max_size=n_rows)), dtype=bool)
        elif kind == "one_value":
            values = np.asarray(["same"] * n_rows, dtype=object)
        elif kind == "all_null":
            values = np.asarray([None] * n_rows, dtype=object) if draw(st.booleans()) \
                else np.full(n_rows, np.nan)
        else:
            # A coarsening of an earlier column: a many-to-one companion.
            if not columns:
                values = np.asarray(draw(st.lists(st.integers(0, 6), min_size=n_rows,
                                                  max_size=n_rows)), dtype=float)
            else:
                source = columns[draw(st.sampled_from(sorted(columns)))].tolist()
                present = sorted({str(value) for value in source
                                  if value is not None and value == value})
                group = draw(st.lists(st.integers(0, 3), min_size=len(present),
                                      max_size=len(present)))
                bucket = dict(zip(present, group))
                values = np.asarray([None if value is None or value != value
                                     else f"g{bucket[str(value)]}"
                                     for value in source], dtype=object)
        columns[name] = values
    return DataFrame(columns)


_COUNTS = st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=3)


# ----------------------------------------------------------------- properties
@given(frames())
@settings(max_examples=150, deadline=None)
def test_companions_match_reference(frame):
    for attribute in frame.column_names:
        assert (ManyToOnePartitioner().find_companions(frame, attribute)
                == reference.ManyToOnePartitioner().find_companions(frame, attribute))


@given(frames(), _COUNTS, st.integers(min_value=1, max_value=3), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_build_partitions_match_reference(frame, counts, min_group_values, input_index):
    attributes = frame.column_names + ["missing"]
    assert_same_partitions(frame, attributes, counts, input_index=input_index,
                           min_group_values=min_group_values)


def _outcome(check) -> Optional[str]:
    try:
        check()
    except PartitionError as error:
        return str(error)
    return None


_ROWS = st.lists(st.integers(min_value=-3, max_value=12), max_size=8)


@given(st.lists(_ROWS, min_size=1, max_size=4), st.one_of(st.none(), _ROWS))
@settings(max_examples=300, deadline=None)
def test_validate_matches_reference(set_rows, ignore_rows):
    """Same accept/reject decision and message, on overlaps and on repeated rows."""
    sets = [RowSet(f"s{index}", np.asarray(rows, dtype=np.int64), "x", "x", "frequency")
            for index, rows in enumerate(set_rows)]
    ignore = None if ignore_rows is None else RowSet(
        "rest", np.asarray(ignore_rows, dtype=np.int64), "x", "x", "frequency", is_ignore=True)

    def build(kind):
        return lambda: kind(sets=sets, ignore_set=ignore, source_attribute="x",
                            method="frequency")

    assert _outcome(build(RowPartition)) == _outcome(build(reference.ReferencePartition))


def test_validate_counts_distinct_shared_rows():
    sets = [RowSet("a", np.asarray([0, 1, 2]), "x", "x", "frequency"),
            RowSet("b", np.asarray([2, 2, 1, 5, 5]), "x", "x", "frequency")]
    with pytest.raises(PartitionError, match=r"overlap \(2 shared rows\)"):
        RowPartition(sets=sets, source_attribute="x", method="frequency")


def test_validate_accepts_rows_repeated_within_one_set():
    sets = [RowSet("a", np.asarray([3, 3, 0]), "x", "x", "frequency"),
            RowSet("b", np.asarray([1, 1]), "x", "x", "frequency")]
    RowPartition(sets=sets, source_attribute="x", method="frequency")


# --------------------------------------------------------------- fixed cases
#: Input attributes the 30 workload queries partition on (query number ->
#: input index -> attributes), as the default configuration selects them at
#: the HTTP benchmark's data sizes.
WORKLOAD_ATTRIBUTES = {
    1: {0: ("item", "list_date_year", "name", "bottle_cost", "bottle_retail"), 1: ("item",)},
    2: {0: ("county", "population", "region"), 1: ("county",)},
    3: {0: ("store", "square_feet"), 1: ("store",)},
    4: {0: ("products_bottle_size", "products_liter_size", "sales_liter_size",
            "products_description", "sales_volume_liters")},
    5: {0: ("products_inner_pack", "products_pack", "sales_pack", "products_description",
            "sales_quantity")},
    6: {0: ("popularity", "year", "decade", "loudness", "energy")},
    7: {0: ("year", "decade", "loudness", "energy", "acousticness")},
    8: {0: ("loudness", "decade", "year", "energy", "acousticness")},
    9: {0: ("duration_minutes", "acousticness", "valence", "energy", "speechiness")},
    10: {0: ("tempo", "instrumentalness", "danceability", "artist_popularity",
             "duration_minutes")},
    11: {0: ("Attrition_Flag", "Total_Transactions_Count", "Total_Transitions_Amount",
             "Total_Amount_Change_Q4_vs_Q1", "Months_Inactive_Count_Last_Year")},
    12: {0: ("Total_Count_Change_Q4_vs_Q1", "Utilisation_Ratio", "Total_Amount_Change_Q4_vs_Q1",
             "Credit_Used", "Avg_Open_To_Buy")},
    13: {0: ("Months_Inactive_Count_Last_Year", "Attrition_Flag", "Total_Transitions_Amount",
             "Total_Count_Change_Q4_vs_Q1", "Total_Transactions_Count")},
    14: {0: ("Customer_Age", "Total_Count_Change_Q4_vs_Q1", "Total_Transitions_Amount",
             "Income_Category", "Credit_Used")},
    15: {0: ("Income_Category", "Avg_Open_To_Buy", "Total_Transitions_Amount", "Credit_Limit",
             "Utilisation_Ratio")},
    16: {0: ("sales_vendor",)},
    17: {0: ("sales_county", "sales_category_name")},
    18: {0: ("products_pack",)},
    19: {0: ("sales_bottle_quantity",)},
    20: {0: ("products_pack", "products_inner_pack")},
    21: {0: ("year",)},
    22: {0: ("year",)},
    23: {0: ("key",)},
    24: {0: ("decade",)},
    25: {0: ("mode", "key")},
    26: {0: ("Marital_Status", "Income_Category")},
    27: {0: ("Marital_Status", "Gender", "Education_Level")},
    28: {0: ("Marital_Status",)},
    29: {0: ("Gender", "Income_Category")},
    30: {0: ("Registered_Products_Count", "Attrition_Flag")},
}

_CASES = [(number, input_index, attribute)
          for number, inputs in WORKLOAD_ATTRIBUTES.items()
          for input_index, attributes in inputs.items()
          for attribute in attributes]


def test_fixed_cases_cover_every_query():
    assert sorted(WORKLOAD_ATTRIBUTES) == list(range(1, 31))


@pytest.fixture(scope="module")
def workload_inputs(tiny_registry):
    steps = {}

    def inputs(number: int):
        if number not in steps:
            steps[number] = get_query(number).build_step(tiny_registry).inputs
        return steps[number]

    return inputs


@pytest.mark.parametrize("number,input_index,attribute", _CASES,
                         ids=[f"Q{n}-in{i}-{a}" for n, i, a in _CASES])
def test_workload_attribute_matches_reference(workload_inputs, number, input_index, attribute):
    frame = workload_inputs(number)[input_index]
    assert attribute in frame
    counts = FedexConfig().set_counts
    assert_same_partitions(frame, [attribute], counts, input_index=input_index)
    assert (ManyToOnePartitioner().find_companions(frame, attribute)
            == reference.ManyToOnePartitioner().find_companions(frame, attribute))
