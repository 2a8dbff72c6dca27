"""Filter predicates for the dataframe substrate.

A predicate maps a :class:`~repro.dataframe.frame.DataFrame` to a boolean
numpy mask.  Predicates are small declarative objects so that EDA operations
(:class:`~repro.operators.operations.Filter`) can be described, inspected,
printed in captions, and re-applied to modified inputs — all of which the
FEDEX contribution computation relies on (it removes a set of rows and
re-runs the *same* operation).
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

from ..errors import OperationError

#: Comparison operators accepted by :class:`Comparison`.
OPERATORS = ("==", "!=", ">", ">=", "<", "<=")


class Predicate(ABC):
    """Base class of the predicate algebra."""

    @abstractmethod
    def mask(self, frame) -> np.ndarray:
        """Return a boolean array selecting the rows that satisfy the predicate."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable rendering used in captions and reprs."""

    def signature(self) -> str:
        """Faithful content identity of the predicate, for cache keys.

        Unlike :meth:`describe` — which may summarise for readability —
        the signature must distinguish any two predicates that can select
        different rows.  The default delegates to :meth:`describe`.  The
        built-in predicates override it: the scalar ones render column
        names and values by ``repr`` (a separator inside a column name or a
        string value cannot make two predicates collide), the combinators
        use their children's signatures, and :class:`RowIndexPredicate`,
        whose description summarises, digests its index set.
        """
        return self.describe()

    # Combinators -----------------------------------------------------------
    def __and__(self, other: "Predicate") -> "Predicate":
        return And([self, other])

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or([self, other])

    def __invert__(self) -> "Predicate":
        return Not(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.describe()})"


class Comparison(Predicate):
    """``column <op> value`` comparison predicate."""

    def __init__(self, column: str, op: str, value: Any) -> None:
        if op not in OPERATORS:
            raise OperationError(f"unsupported comparison operator {op!r}")
        self.column = column
        self.op = op
        self.value = value

    def mask(self, frame) -> np.ndarray:
        column = frame[self.column]
        values = column.values
        value = self.value
        if column.is_numeric:
            values = values.astype(float)
            value = float(value)
        if self.op == "==":
            return values == value
        if self.op == "!=":
            return values != value
        if self.op == ">":
            return values.astype(float) > float(value)
        if self.op == ">=":
            return values.astype(float) >= float(value)
        if self.op == "<":
            return values.astype(float) < float(value)
        return values.astype(float) <= float(value)

    def describe(self) -> str:
        value = f"{self.value!r}" if isinstance(self.value, str) else f"{self.value}"
        return f"{self.column} {self.op} {value}"

    def signature(self) -> str:
        return f"{self.column!r} {self.op} {self.value!r}"


class IsIn(Predicate):
    """``column IN (v1, v2, ...)`` membership predicate."""

    def __init__(self, column: str, values: Sequence[Any]) -> None:
        if not values:
            raise OperationError("IsIn requires at least one value")
        self.column = column
        self.values = list(values)

    def mask(self, frame) -> np.ndarray:
        column = frame[self.column]
        allowed = set(self.values)
        return np.asarray([v in allowed for v in column.tolist()], dtype=bool)

    def describe(self) -> str:
        return f"{self.column} in {self.values}"

    def signature(self) -> str:
        return f"{self.column!r} in {self.values!r}"


class Between(Predicate):
    """``low <= column < high`` half-open interval predicate."""

    def __init__(self, column: str, low: float, high: float, inclusive_high: bool = False) -> None:
        self.column = column
        self.low = float(low)
        self.high = float(high)
        self.inclusive_high = inclusive_high

    def mask(self, frame) -> np.ndarray:
        values = frame[self.column].to_float()
        upper = values <= self.high if self.inclusive_high else values < self.high
        return (values >= self.low) & upper

    def describe(self) -> str:
        upper = "<=" if self.inclusive_high else "<"
        return f"{self.low} <= {self.column} {upper} {self.high}"

    def signature(self) -> str:
        upper = "<=" if self.inclusive_high else "<"
        return f"{self.low!r} <= {self.column!r} {upper} {self.high!r}"


class IsNull(Predicate):
    """Rows whose value in ``column`` is missing."""

    def __init__(self, column: str) -> None:
        self.column = column

    def mask(self, frame) -> np.ndarray:
        return frame[self.column].null_mask()

    def describe(self) -> str:
        return f"{self.column} is null"

    def signature(self) -> str:
        return f"{self.column!r} is null"


class And(Predicate):
    """Conjunction of predicates."""

    def __init__(self, predicates: Sequence[Predicate]) -> None:
        if not predicates:
            raise OperationError("And requires at least one predicate")
        self.predicates = list(predicates)

    def mask(self, frame) -> np.ndarray:
        result = self.predicates[0].mask(frame)
        for predicate in self.predicates[1:]:
            result = result & predicate.mask(frame)
        return result

    def describe(self) -> str:
        return " and ".join(f"({p.describe()})" for p in self.predicates)

    def signature(self) -> str:
        return " and ".join(f"({p.signature()})" for p in self.predicates)


class Or(Predicate):
    """Disjunction of predicates."""

    def __init__(self, predicates: Sequence[Predicate]) -> None:
        if not predicates:
            raise OperationError("Or requires at least one predicate")
        self.predicates = list(predicates)

    def mask(self, frame) -> np.ndarray:
        result = self.predicates[0].mask(frame)
        for predicate in self.predicates[1:]:
            result = result | predicate.mask(frame)
        return result

    def describe(self) -> str:
        return " or ".join(f"({p.describe()})" for p in self.predicates)

    def signature(self) -> str:
        return " or ".join(f"({p.signature()})" for p in self.predicates)


class Not(Predicate):
    """Negation of a predicate."""

    def __init__(self, predicate: Predicate) -> None:
        self.predicate = predicate

    def mask(self, frame) -> np.ndarray:
        return ~self.predicate.mask(frame)

    def describe(self) -> str:
        return f"not ({self.predicate.describe()})"

    def signature(self) -> str:
        return f"not ({self.predicate.signature()})"


class RowIndexPredicate(Predicate):
    """Select rows by explicit positional indices (used by interventions)."""

    def __init__(self, indices: Sequence[int]) -> None:
        self.indices = np.asarray(sorted(set(int(i) for i in indices)), dtype=np.int64)

    def mask(self, frame) -> np.ndarray:
        keep = np.zeros(frame.num_rows, dtype=bool)
        valid = self.indices[(self.indices >= 0) & (self.indices < frame.num_rows)]
        keep[valid] = True
        return keep

    def describe(self) -> str:
        return f"rows in explicit index set of size {len(self.indices)}"

    def signature(self) -> str:
        # The description summarises (index sets can be huge); the cache
        # identity must pin the exact rows selected.
        digest = hashlib.blake2b(self.indices.tobytes(), digest_size=16).hexdigest()
        return f"rows in explicit index set #{digest}"
