"""The :class:`DataFrame` — the relational substrate used throughout the repo.

The paper implements FEDEX on top of pandas [53].  pandas is not available in
this environment, so the repository ships its own small columnar dataframe
engine built on NumPy.  It supports exactly the relational semantics the
FEDEX algorithms need:

* named, typed columns (:class:`~repro.dataframe.column.Column`)
* row selection via predicates or explicit indices (filter, intervention)
* projection, renaming, sorting, head/tail
* group-by with the aggregations used by the paper's workloads
  (mean, sum, count, min, max) — see :mod:`repro.dataframe.groupby`
* inner join and union — see :mod:`repro.dataframe.join`
* uniform row sampling — see :mod:`repro.dataframe.sampling`
* CSV I/O — see :mod:`repro.dataframe.io`

Dataframes are treated as immutable: every operation returns a new frame.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, List, Mapping, Sequence

import numpy as np

from ..errors import ColumnError, SchemaError
from .column import Column, ensure_same_length
from .predicates import Predicate


class DataFrame:
    """An ordered collection of equally-long named columns.

    Parameters
    ----------
    columns:
        Either a mapping from column name to values / :class:`Column`, or an
        iterable of :class:`Column` objects.  Column order is preserved.
    """

    __slots__ = ("_columns", "_order", "_dataset")

    def __init__(self, columns: Mapping[str, Any] | Iterable[Column] | None = None) -> None:
        self._columns: Dict[str, Column] = {}
        self._order: List[str] = []
        # The repro.storage Dataset this frame was opened from, if any;
        # every derived frame is a plain in-memory frame again (its rows no
        # longer match the dataset), so the reference is never inherited.
        self._dataset = None
        if columns is None:
            return
        if isinstance(columns, Mapping):
            items = [
                value if isinstance(value, Column) else Column(name, value)
                for name, value in columns.items()
            ]
        else:
            items = list(columns)
        for column in items:
            if not isinstance(column, Column):
                raise ColumnError(f"expected Column instances, got {type(column).__name__}")
            if column.name in self._columns:
                raise SchemaError(f"duplicate column name {column.name!r}")
            self._columns[column.name] = column
            self._order.append(column.name)
        ensure_same_length(self._columns.values())

    # -------------------------------------------------------------- basic API
    @property
    def column_names(self) -> List[str]:
        """Names of the columns, in order (the schema ``A(d)``)."""
        return list(self._order)

    @property
    def num_rows(self) -> int:
        """Number of rows in the dataframe."""
        if not self._order:
            return 0
        return len(self._columns[self._order[0]])

    @property
    def num_columns(self) -> int:
        """Number of columns in the dataframe."""
        return len(self._order)

    @property
    def shape(self) -> tuple:
        """(rows, columns) shape tuple."""
        return (self.num_rows, self.num_columns)

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> Column:
        if name not in self._columns:
            raise ColumnError(f"unknown column {name!r}; available: {self._order}")
        return self._columns[name]

    def __iter__(self):
        return iter(self._order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataFrame):
            return NotImplemented
        if self._order != other._order or self.num_rows != other.num_rows:
            return False
        return all(self._columns[name] == other._columns[name] for name in self._order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataFrame(rows={self.num_rows}, columns={self._order})"

    def columns(self) -> List[Column]:
        """The column objects, in schema order."""
        return [self._columns[name] for name in self._order]

    def fingerprint(self, column_fingerprint=None) -> str:
        """Stable content fingerprint of the dataframe.

        Combines the per-column fingerprints in schema order, so two frames
        match exactly when they have the same schema and equal values — the
        identity the session caches (:mod:`repro.session`) key dataframes by.
        Recomputed on every call; see :meth:`Column.fingerprint`.
        ``column_fingerprint`` optionally replaces the per-column hashing
        (the session cache passes its request-scoped memoized variant).
        """
        hash_column = column_fingerprint or (lambda column: column.fingerprint())
        digest = hashlib.blake2b(digest_size=16)
        digest.update(str(self.num_rows).encode())
        for column in self.columns():
            digest.update(hash_column(column).encode())
        return digest.hexdigest()

    def column_kinds(self) -> Dict[str, str]:
        """Mapping from column name to its logical kind."""
        return {name: self._columns[name].kind for name in self._order}

    def numeric_columns(self) -> List[str]:
        """Names of the numeric columns."""
        return [name for name in self._order if self._columns[name].is_numeric]

    def categorical_columns(self) -> List[str]:
        """Names of the categorical columns."""
        return [name for name in self._order if self._columns[name].is_categorical]

    # ------------------------------------------------------------ construction
    @classmethod
    def from_rows(cls, rows: Sequence[Mapping[str, Any]], column_order: Sequence[str] | None = None) -> "DataFrame":
        """Build a dataframe from a list of row dictionaries."""
        if not rows:
            # No rows carry no type evidence: empty columns are object-kind,
            # consistent with _guess_dtype on an empty value list.
            return cls({
                name: np.asarray([], dtype=object) for name in (column_order or [])
            })
        names = list(column_order) if column_order else list(rows[0].keys())
        data = {name: [row.get(name) for row in rows] for name in names}
        return cls({name: np.asarray(values, dtype=_guess_dtype(values)) for name, values in data.items()})

    def copy(self) -> "DataFrame":
        """Deep copy of the dataframe."""
        return DataFrame([column.copy() for column in self.columns()])

    def with_column(self, column: Column) -> "DataFrame":
        """Return a new dataframe with ``column`` added (or replaced)."""
        if self._order and len(column) != self.num_rows:
            raise ColumnError(
                f"new column {column.name!r} has {len(column)} rows, dataframe has {self.num_rows}"
            )
        columns = [self._columns[name] for name in self._order if name != column.name]
        columns.append(column)
        return DataFrame(columns)

    def rename(self, mapping: Mapping[str, str]) -> "DataFrame":
        """Return a new dataframe with columns renamed according to ``mapping``."""
        return DataFrame([
            self._columns[name].rename(mapping.get(name, name)) for name in self._order
        ])

    def select(self, names: Sequence[str]) -> "DataFrame":
        """Project onto the given columns, in the given order."""
        missing = [name for name in names if name not in self._columns]
        if missing:
            raise ColumnError(f"unknown columns {missing}; available: {self._order}")
        return DataFrame([self._columns[name] for name in names])

    def drop(self, names: Sequence[str]) -> "DataFrame":
        """Return a new dataframe without the given columns."""
        to_drop = set(names)
        return DataFrame([self._columns[name] for name in self._order if name not in to_drop])

    # ------------------------------------------------------------ row selection
    def descriptor(self):
        """Picklable handle of a storage-backed frame, or ``None``.

        A frame opened from an on-disk dataset (:mod:`repro.storage`) can be
        described by a tiny :class:`~repro.storage.reader.FrameDescriptor`
        (store path + manifest version + frame fingerprint + column subset)
        that another process resolves back into an mmap-backed frame over
        the *same* kernel pages — see :meth:`from_descriptor`.  Plain
        in-memory frames, and frames derived from a stored one (whose rows
        no longer match the dataset), return ``None``.
        """
        if self._dataset is None:
            return None
        from ..storage.reader import frame_descriptor

        return frame_descriptor(self, self._dataset)

    @classmethod
    def from_descriptor(cls, descriptor) -> "DataFrame":
        """Resolve a :meth:`descriptor` back into an mmap-backed frame.

        Validated against the descriptor's pinned manifest version and frame
        fingerprint; see :func:`repro.storage.reader.frame_from_descriptor`.
        """
        from ..storage.reader import frame_from_descriptor

        return frame_from_descriptor(descriptor)

    def predicate_mask(self, predicate: Predicate) -> np.ndarray:
        """Boolean row mask of ``predicate``."""
        return np.asarray(predicate.mask(self), dtype=bool)

    def filter(self, predicate: Predicate) -> "DataFrame":
        """Rows satisfying ``predicate`` (the relational selection operator)."""
        keep = self.predicate_mask(predicate)
        return self.mask(keep)

    def mask(self, keep: np.ndarray) -> "DataFrame":
        """Rows where the boolean array ``keep`` is True."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape[0] != self.num_rows:
            raise ColumnError(
                f"mask length {keep.shape[0]} does not match row count {self.num_rows}"
            )
        return DataFrame([column.mask(keep) for column in self.columns()])

    def take(self, indices: Sequence[int]) -> "DataFrame":
        """Rows at the given positional indices, in order."""
        idx = np.asarray(indices, dtype=np.int64)
        return DataFrame([column.take(idx) for column in self.columns()])

    def remove_rows(self, indices: Sequence[int]) -> "DataFrame":
        """Dataframe with the rows at ``indices`` removed.

        This is the intervention primitive used by the contribution function:
        ``D_in − R`` for a set-of-rows ``R`` given by positional indices.
        """
        drop = np.zeros(self.num_rows, dtype=bool)
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size:
            idx = idx[(idx >= 0) & (idx < self.num_rows)]
            drop[idx] = True
        return self.mask(~drop)

    def head(self, n: int = 5) -> "DataFrame":
        """First ``n`` rows."""
        return self.take(np.arange(min(n, self.num_rows)))

    def tail(self, n: int = 5) -> "DataFrame":
        """Last ``n`` rows."""
        start = max(self.num_rows - n, 0)
        return self.take(np.arange(start, self.num_rows))

    def sort_values(self, by: str, ascending: bool = True) -> "DataFrame":
        """Rows sorted by the given column."""
        order = self[by].sorted_order()
        if not ascending:
            order = order[::-1]
        return self.take(order)

    # ------------------------------------------------------------- conversions
    def to_rows(self) -> List[Dict[str, Any]]:
        """Materialise the dataframe as a list of row dictionaries."""
        lists = {name: self._columns[name].tolist() for name in self._order}
        return [
            {name: lists[name][i] for name in self._order} for i in range(self.num_rows)
        ]

    def to_dict(self) -> Dict[str, list]:
        """Materialise the dataframe as ``{column: list of values}``."""
        return {name: self._columns[name].tolist() for name in self._order}

    def row(self, index: int) -> Dict[str, Any]:
        """A single row as a dictionary."""
        return {name: self._columns[name][index] for name in self._order}

    # --------------------------------------------------------------- delegates
    def groupby(self, by: Sequence[str] | str, aggregations: Mapping[str, Sequence[str]] | None = None,
                include_count: bool = False) -> "DataFrame":
        """Group-by with aggregations; see :func:`repro.dataframe.groupby.groupby`."""
        from .groupby import groupby as _groupby

        return _groupby(self, by, aggregations, include_count=include_count)

    def join(self, other: "DataFrame", on: str | Sequence[str], how: str = "inner",
             suffixes: tuple = ("_left", "_right")) -> "DataFrame":
        """Join with another dataframe; see :func:`repro.dataframe.join.join`."""
        from .join import join as _join

        return _join(self, other, on, how=how, suffixes=suffixes)

    def union(self, other: "DataFrame") -> "DataFrame":
        """Union (row concatenation) with another dataframe."""
        from .join import union as _union

        return _union(self, other)

    def sample(self, n: int, seed: int | None = None) -> "DataFrame":
        """Uniform row sample without replacement; see :mod:`repro.dataframe.sampling`."""
        from .sampling import uniform_sample

        return uniform_sample(self, n, seed=seed)

    def describe(self) -> Dict[str, Dict[str, float]]:
        """Summary statistics (count / mean / std / min / max / distinct) per column."""
        summary: Dict[str, Dict[str, float]] = {}
        for name in self._order:
            column = self._columns[name]
            entry: Dict[str, float] = {
                "count": float(len(column) - int(column.null_mask().sum())),
                "distinct": float(column.n_unique()),
            }
            if column.is_numeric:
                entry.update(
                    mean=column.mean(), std=column.std(), min=column.min(), max=column.max()
                )
            summary[name] = entry
        return summary


def _guess_dtype(values: Sequence[Any]):
    """Pick a numpy dtype for a list of python values (object for mixed/str).

    An empty list carries no type evidence, so it stays ``object`` rather than
    defaulting to a numeric dtype.  Because ``bool`` is a subclass of ``int``
    in python, a bool/int mix must be caught explicitly: coercing it to
    ``int64`` would silently turn ``True``/``False`` into ``1``/``0``.
    """
    if not values:
        return object
    has_str = any(isinstance(v, str) for v in values)
    has_none = any(v is None for v in values)
    if has_str or has_none:
        return object
    has_bool = any(isinstance(v, bool) for v in values)
    if has_bool:
        return bool if all(isinstance(v, bool) for v in values) else object
    if all(isinstance(v, int) for v in values):
        return np.int64
    return float


def concat_frames(frames: Sequence[DataFrame]) -> DataFrame:
    """Concatenate dataframes with identical schemas row-wise."""
    if not frames:
        return DataFrame()
    result = frames[0]
    for frame in frames[1:]:
        result = result.union(frame)
    return result
