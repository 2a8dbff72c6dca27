"""Advanced EDA / OLAP operations: pivot, diff, and roll-up.

Section 3.1 of the paper notes that "additional, advanced EDA and OLAP
operations such as pivot, diff, and roll-up can be supported by a simple
extension of our model".  This module provides that extension:

* :class:`Pivot` — group by a row key, spread a column's values into columns,
  aggregate a measure (a cross-tabulation).  Explained with the diversity
  measure, like group-by.
* :class:`Diff` — row-wise difference of an aggregated measure between two
  snapshots of a dataframe (e.g. two time periods), keyed by a grouping
  column.  Explained with the diversity measure over the delta column.
* :class:`RollUp` — a group-by re-aggregated at a coarser key (drop the last
  key column), the classic OLAP roll-up.  Explained like group-by.

All three re-apply cleanly to modified inputs, so FEDEX's intervention-based
contribution works on them unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..dataframe.column import Column
from ..dataframe.frame import DataFrame
from ..dataframe.groupby import AGGREGATIONS, group_indices
from ..errors import OperationError
from .operations import GroupBy, MEASURE_DIVERSITY, Operation


class Pivot(Operation):
    """Cross-tabulation: rows = ``index`` values, columns = ``columns`` values.

    Parameters
    ----------
    index:
        Grouping attribute whose values become the output rows.
    columns:
        Attribute whose values become output columns (one column per value,
        named ``<value>_<aggregate>_<measure>``).
    measure:
        Numeric attribute being aggregated; ``None`` counts rows.
    aggregate:
        Aggregation name (``mean``, ``sum``, ``count``, ...).
    max_columns:
        Only the ``max_columns`` most frequent values of ``columns`` become
        output columns (keeps the pivot readable and bounded).
    """

    kind = "pivot"

    def __init__(self, index: str, columns: str, measure: Optional[str] = None,
                 aggregate: str = "count", max_columns: int = 12) -> None:
        if aggregate not in AGGREGATIONS:
            raise OperationError(f"unknown aggregation {aggregate!r}")
        if measure is None and aggregate != "count":
            raise OperationError("a measure column is required unless aggregate='count'")
        self.index = index
        self.columns = columns
        self.measure = measure
        self.aggregate = aggregate
        self.max_columns = max_columns

    @property
    def default_measure(self) -> str:
        return MEASURE_DIVERSITY

    def apply(self, inputs: Sequence[DataFrame]) -> DataFrame:
        self.validate_inputs(inputs)
        frame = inputs[0]
        for name in (self.index, self.columns) + ((self.measure,) if self.measure else ()):
            if name not in frame:
                raise OperationError(f"pivot column {name!r} not found")

        column_values = [value for value, _ in sorted(
            frame[self.columns].value_counts().items(), key=lambda item: (-item[1], str(item[0]))
        )[: self.max_columns]]
        buckets = group_indices(frame, [self.index, self.columns])
        row_keys = sorted({key[0] for key in buckets}, key=str)
        func = AGGREGATIONS[self.aggregate]

        cells: Dict[str, List[float]] = {str(value): [] for value in column_values}
        for row_key in row_keys:
            for value in column_values:
                indices = buckets.get((row_key, value))
                if indices is None or indices.size == 0:
                    cells[str(value)].append(float("nan"))
                    continue
                if self.aggregate == "count" or self.measure is None:
                    cells[str(value)].append(float(indices.size))
                    continue
                measures = frame[self.measure].values[indices].astype(float)
                measures = measures[~np.isnan(measures)]
                cells[str(value)].append(func(measures) if measures.size else float("nan"))

        out_columns = [Column(self.index, np.asarray(row_keys, dtype=object))]
        suffix = f"{self.aggregate}_{self.measure}" if self.measure else "count"
        for value in column_values:
            out_columns.append(Column(f"{value}_{suffix}", np.asarray(cells[str(value)], dtype=float)))
        return DataFrame(out_columns)

    def describe(self) -> str:
        measure_text = f"{self.aggregate}({self.measure})" if self.measure else "count"
        return f"pivot {measure_text} by {self.index} x {self.columns}"

    def signature(self) -> str:
        return (f"pivot index={self.index!r} columns={self.columns!r} "
                f"measure={self.measure!r} aggregate={self.aggregate!r} "
                f"max_columns={self.max_columns!r}")


class Diff(Operation):
    """Per-group change of an aggregated measure between two input snapshots.

    Takes two input dataframes (e.g. sales of two years), aggregates
    ``measure`` per ``key`` in each, and outputs one row per key with the two
    aggregates and their difference (``delta_<agg>_<measure>``).
    """

    kind = "diff"

    def __init__(self, key: str, measure: str, aggregate: str = "mean") -> None:
        if aggregate not in AGGREGATIONS:
            raise OperationError(f"unknown aggregation {aggregate!r}")
        self.key = key
        self.measure = measure
        self.aggregate = aggregate

    @property
    def arity(self) -> int:
        return 2

    @property
    def default_measure(self) -> str:
        return MEASURE_DIVERSITY

    def apply(self, inputs: Sequence[DataFrame]) -> DataFrame:
        self.validate_inputs(inputs)
        first = self._aggregate(inputs[0])
        second = self._aggregate(inputs[1])
        keys = sorted(set(first) | set(second), key=str)
        agg_name = f"{self.aggregate}_{self.measure}"
        before = [first.get(key, float("nan")) for key in keys]
        after = [second.get(key, float("nan")) for key in keys]
        delta = [b - a if (a == a and b == b) else float("nan") for a, b in zip(before, after)]
        return DataFrame([
            Column(self.key, np.asarray(keys, dtype=object)),
            Column(f"{agg_name}_before", np.asarray(before, dtype=float)),
            Column(f"{agg_name}_after", np.asarray(after, dtype=float)),
            Column(f"delta_{agg_name}", np.asarray(delta, dtype=float)),
        ])

    def _aggregate(self, frame: DataFrame) -> Dict:
        if self.key not in frame or self.measure not in frame:
            raise OperationError(
                f"diff requires columns {self.key!r} and {self.measure!r} in both inputs"
            )
        func = AGGREGATIONS[self.aggregate]
        result: Dict = {}
        for key, indices in group_indices(frame, [self.key]).items():
            values = frame[self.measure].values[indices].astype(float)
            values = values[~np.isnan(values)]
            result[key[0]] = func(values) if values.size else float("nan")
        return result

    def describe(self) -> str:
        return f"diff of {self.aggregate}({self.measure}) per {self.key} between two snapshots"

    def signature(self) -> str:
        return f"diff key={self.key!r} measure={self.measure!r} aggregate={self.aggregate!r}"


class RollUp(Operation):
    """OLAP roll-up: aggregate at a coarser grouping key.

    Equivalent to a :class:`~repro.operators.operations.GroupBy` on
    ``keys[:-1]`` — the last (finest) key column is rolled away.  Provided as
    a first-class operation so exploration sessions can express
    drill-down/roll-up pairs explicitly.
    """

    kind = "rollup"

    def __init__(self, keys: Sequence[str], aggregations: Mapping[str, Sequence[str]] | None = None,
                 include_count: bool = False) -> None:
        keys = list(keys)
        if len(keys) < 2:
            raise OperationError("roll-up requires at least two key columns (one is rolled away)")
        self.keys = keys
        self._inner = GroupBy(keys[:-1], aggregations, include_count=include_count)

    @property
    def default_measure(self) -> str:
        return MEASURE_DIVERSITY

    @property
    def rolled_keys(self) -> List[str]:
        """The grouping keys of the rolled-up (coarser) result."""
        return list(self._inner.keys)

    def aggregated_output_columns(self) -> List[str]:
        """Aggregate columns of the output (mirrors GroupBy's helper)."""
        return self._inner.aggregated_output_columns()

    def apply(self, inputs: Sequence[DataFrame]) -> DataFrame:
        self.validate_inputs(inputs)
        return self._inner.apply(inputs)

    def describe(self) -> str:
        return f"roll-up from ({', '.join(self.keys)}) to ({', '.join(self._inner.keys)})"

    def signature(self) -> str:
        # The description names only the keys; the rolled-up group-by's
        # signature adds the aggregations and the count column.
        return f"rollup keys={self.keys!r} via {self._inner.signature()}"
