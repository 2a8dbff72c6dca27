"""EDA operation specifications.

An *operation* (``q`` in the paper) is a declarative, re-applicable
description of an exploratory action: filter, group-by, join, or union.
Keeping operations declarative is essential for FEDEX's contribution
computation, which removes a set of rows from the input and re-runs *the
same* operation on the reduced input (Definition 3.3).

Every operation knows:

* how to :meth:`~Operation.apply` itself to a list of input dataframes,
* which interestingness family suits it by default
  (:attr:`~Operation.default_measure` — ``"exceptionality"`` for
  filter/join/union, ``"diversity"`` for group-by, per §3.2),
* how to :meth:`~Operation.describe` itself for captions and logs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..dataframe.frame import DataFrame
from ..dataframe.predicates import Predicate
from ..errors import OperationError

#: Interestingness families (see :mod:`repro.core.interestingness`).
MEASURE_EXCEPTIONALITY = "exceptionality"
MEASURE_DIVERSITY = "diversity"

#: Aggregations whose reduced value is derivable from per-group partials
#: without re-running the group-by: sum/count/mean by subtraction, min/max
#: by a per-group rescan, median by order-statistic lookups on a shared
#: group-major sort, std by subtraction of centered first/second moments.
DECOMPOSABLE_AGGREGATIONS = ("mean", "sum", "min", "max", "count", "median", "std")


class Operation(ABC):
    """Base class for EDA operations."""

    #: Name of the operation type ("filter", "groupby", "join", "union").
    kind: str = "operation"

    @abstractmethod
    def apply(self, inputs: Sequence[DataFrame]) -> DataFrame:
        """Apply the operation to the input dataframes and return the output."""

    @abstractmethod
    def describe(self) -> str:
        """Short human-readable description used in captions and logs."""

    def signature(self) -> str:
        """Faithful content identity of the operation, for cache keys.

        Must distinguish any two operations that can behave differently on
        the same inputs, so it names every field that affects the output:
        a derived step is keyed by its operation's signature and input
        fingerprints alone (:func:`repro.core.signatures.step_signature`).
        The default delegates to :meth:`describe`, which must then be
        complete.  Operations with a lossy description (one that omits a
        field or summarises a predicate) override it; the built-ins render
        names and values by ``repr``, so a separator inside a column name
        cannot make two operations collide.
        """
        return self.describe()

    @property
    def default_measure(self) -> str:
        """The interestingness family FEDEX uses for this operation by default."""
        return MEASURE_EXCEPTIONALITY

    @property
    def arity(self) -> int:
        """Number of input dataframes the operation expects."""
        return 1

    def validate_inputs(self, inputs: Sequence[DataFrame]) -> None:
        """Raise :class:`OperationError` when the number of inputs is wrong."""
        if len(inputs) != self.arity:
            raise OperationError(
                f"{self.kind} operation expects {self.arity} input dataframe(s), got {len(inputs)}"
            )

    # ------------------------------------------------- incremental-backend hooks
    def decomposable_aggregates(self) -> Optional[Dict[str, Tuple[str, Optional[str]]]]:
        """Structure of the output aggregates, when every one is decomposable.

        Group-by style operations return a mapping ``output column ->
        (aggregation name, source column)`` (source column ``None`` for pure
        row counts) that lets the incremental contribution backend derive
        every reduced aggregate from precomputed per-group partials instead
        of re-grouping (see :mod:`repro.core.backends.incremental`).  ``None``
        — the default — means the hook does not apply: either the operation
        is not an aggregation, or some aggregate (``median``, ``std``) cannot
        be updated incrementally.
        """
        return None

    def row_mask(self, inputs: Sequence[DataFrame]) -> Optional[List[Optional[np.ndarray]]]:
        """Row-level provenance of the output: which input row made each output row.

        Operations whose output rows are copies of input rows (filter, join,
        union, project) return one entry per input dataframe: an ``int64``
        array of length ``n_output_rows`` whose ``j``-th element is the
        positional index of the input row that produced output row ``j``
        (``-1`` when the output row does not derive from that input, as in a
        union), or ``None`` when removing rows of that input is *not*
        equivalent to slicing the output (e.g. the right side of a left
        join, where removals resurrect unmatched left rows).  Returning
        ``None`` altogether — the default — means the output is not a row
        selection of the inputs (e.g. group-by) and the incremental backend
        must use another strategy or fall back to re-running.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.describe()})"


class Filter(Operation):
    """Row-selection operation: keep rows satisfying a predicate.

    Both application and row-level provenance evaluate the predicate via
    :meth:`DataFrame.predicate_mask`, so the kept rows and their provenance
    come from one mask, on in-memory and stored (:mod:`repro.storage`)
    frames alike.
    """

    kind = "filter"

    def __init__(self, predicate: Predicate) -> None:
        self.predicate = predicate

    def apply(self, inputs: Sequence[DataFrame]) -> DataFrame:
        self.validate_inputs(inputs)
        return inputs[0].filter(self.predicate)

    def row_mask(self, inputs: Sequence[DataFrame]) -> List[Optional[np.ndarray]]:
        self.validate_inputs(inputs)
        return [np.flatnonzero(inputs[0].predicate_mask(self.predicate)).astype(np.int64)]

    def describe(self) -> str:
        return f"filter {self.predicate.describe()}"

    def signature(self) -> str:
        return f"filter {self.predicate.signature()}"


class GroupBy(Operation):
    """Group-by-and-aggregate operation.

    Parameters
    ----------
    keys:
        Grouping column(s).
    aggregations:
        Mapping value-column -> list of aggregation names (``mean``, ``max``,
        ``min``, ``sum``, ``count``, ``median``, ``std``).
    include_count:
        Add a ``count`` column with the group sizes (the paper's
        ``SELECT count ... GROUP BY`` queries).
    pre_filter:
        Optional predicate applied to the input before grouping; the paper's
        running example (query "group by year where year >= 1990") uses this.
    """

    kind = "groupby"

    def __init__(self, keys: Sequence[str] | str,
                 aggregations: Mapping[str, Sequence[str]] | None = None,
                 include_count: bool = False,
                 pre_filter: Predicate | None = None) -> None:
        self.keys = [keys] if isinstance(keys, str) else list(keys)
        if not self.keys:
            raise OperationError("group-by requires at least one key column")
        self.aggregations: Dict[str, List[str]] = {
            column: list(aggs) for column, aggs in (aggregations or {}).items()
        }
        self.include_count = include_count or not self.aggregations
        self.pre_filter = pre_filter

    def apply(self, inputs: Sequence[DataFrame]) -> DataFrame:
        self.validate_inputs(inputs)
        frame = inputs[0]
        if self.pre_filter is not None:
            frame = frame.filter(self.pre_filter)
        return frame.groupby(self.keys, self.aggregations, include_count=self.include_count)

    @property
    def default_measure(self) -> str:
        return MEASURE_DIVERSITY

    def aggregated_output_columns(self) -> List[str]:
        """Names of the aggregate columns produced in the output dataframe."""
        from ..dataframe.groupby import aggregation_column_name

        names = [
            aggregation_column_name(agg, column)
            for column, aggs in self.aggregations.items()
            for agg in aggs
        ]
        if self.include_count:
            names.append("count")
        return names

    def decomposable_aggregates(self) -> Optional[Dict[str, Tuple[str, Optional[str]]]]:
        from ..dataframe.groupby import aggregation_column_name

        specs: Dict[str, Tuple[str, Optional[str]]] = {}
        for column, aggs in self.aggregations.items():
            for agg in aggs:
                if agg not in DECOMPOSABLE_AGGREGATIONS:
                    return None
                specs[aggregation_column_name(agg, column)] = (agg, column)
        if self.include_count:
            specs["count"] = ("count", None)
        return specs

    def describe(self) -> str:
        prefix = f"where {self.pre_filter.describe()} " if self.pre_filter is not None else ""
        agg_text = ", ".join(
            f"{agg}({column})" for column, aggs in self.aggregations.items() for agg in aggs
        )
        if self.include_count:
            agg_text = f"{agg_text}, count" if agg_text else "count"
        return f"{prefix}group by {', '.join(self.keys)} computing {agg_text}"

    def signature(self) -> str:
        pre_filter = self.pre_filter.signature() if self.pre_filter is not None else None
        return (f"groupby keys={self.keys!r} aggregations={self.aggregations!r} "
                f"count={self.include_count!r} where={pre_filter!r}")


class Join(Operation):
    """Inner (or left) join of two input dataframes on key column(s)."""

    kind = "join"

    def __init__(self, on: str | Sequence[str], how: str = "inner") -> None:
        self.on = [on] if isinstance(on, str) else list(on)
        if not self.on:
            raise OperationError("join requires at least one key column")
        self.how = how

    @property
    def arity(self) -> int:
        return 2

    def apply(self, inputs: Sequence[DataFrame]) -> DataFrame:
        self.validate_inputs(inputs)
        return inputs[0].join(inputs[1], on=self.on, how=self.how)

    def match_rows(self, inputs: Sequence[DataFrame]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The join's match structure: paired row indices plus unmatched lefts.

        Returns ``(left_idx, right_idx, unmatched_left)`` exactly as the
        hash-join materialisation computes them: ``left_idx[i]`` /
        ``right_idx[i]`` are the input rows of output pair ``i`` (in output
        order), and ``unmatched_left`` lists (sorted) the left rows a left
        join appends after the pairs.  The incremental backend derives
        right-side interventions of a *left* join from this — removing
        right rows drops pairs and resurrects fully-unmatched left rows,
        which is not a slice of the output but is fully determined here.
        """
        from ..dataframe.join import _match_rows

        self.validate_inputs(inputs)
        return _match_rows(inputs[0], inputs[1], self.on)

    def row_mask(self, inputs: Sequence[DataFrame]) -> Optional[List[Optional[np.ndarray]]]:
        left_idx, right_idx, unmatched_left = self.match_rows(inputs)
        if self.how == "inner":
            return [left_idx, right_idx]
        if self.how == "left":
            # Output rows are the matched pairs followed by the unmatched left
            # rows.  Removing a right row is not a slice of the output (its
            # matched left rows would resurface as unmatched), hence ``None``
            # — the dedicated left-join plan of the incremental backend
            # handles that side through :meth:`match_rows` instead.
            return [np.concatenate([left_idx, unmatched_left]).astype(np.int64), None]
        return None

    def describe(self) -> str:
        return f"{self.how} join on {', '.join(self.on)}"

    def signature(self) -> str:
        return f"join how={self.how!r} on={self.on!r}"


class Union(Operation):
    """Union (row concatenation, aligned by column name) of input dataframes."""

    kind = "union"

    def __init__(self, n_inputs: int = 2) -> None:
        if n_inputs < 2:
            raise OperationError("union requires at least two input dataframes")
        self.n_inputs = n_inputs

    @property
    def arity(self) -> int:
        return self.n_inputs

    def apply(self, inputs: Sequence[DataFrame]) -> DataFrame:
        self.validate_inputs(inputs)
        result = inputs[0]
        for frame in inputs[1:]:
            result = result.union(frame)
        return result

    def row_mask(self, inputs: Sequence[DataFrame]) -> List[Optional[np.ndarray]]:
        self.validate_inputs(inputs)
        total = sum(frame.num_rows for frame in inputs)
        sources: List[Optional[np.ndarray]] = []
        offset = 0
        for frame in inputs:
            mapping = np.full(total, -1, dtype=np.int64)
            mapping[offset:offset + frame.num_rows] = np.arange(frame.num_rows, dtype=np.int64)
            sources.append(mapping)
            offset += frame.num_rows
        return sources

    def describe(self) -> str:
        return f"union of {self.n_inputs} dataframes"


class Project(Operation):
    """Column projection.

    Not one of the paper's four first-class EDA operations, but used to
    implement the "user-specified columns" extension (§3.8): FEDEX projects
    the input and output onto the user-selected attributes before running
    Algorithm 1.
    """

    kind = "project"

    def __init__(self, columns: Sequence[str]) -> None:
        if not columns:
            raise OperationError("projection requires at least one column")
        self.columns = list(columns)

    def apply(self, inputs: Sequence[DataFrame]) -> DataFrame:
        self.validate_inputs(inputs)
        present = [name for name in self.columns if name in inputs[0]]
        return inputs[0].select(present)

    def row_mask(self, inputs: Sequence[DataFrame]) -> List[Optional[np.ndarray]]:
        self.validate_inputs(inputs)
        return [np.arange(inputs[0].num_rows, dtype=np.int64)]

    def describe(self) -> str:
        return f"project onto {', '.join(self.columns)}"

    def signature(self) -> str:
        return f"project {self.columns!r}"
