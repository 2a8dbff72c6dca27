"""Typed, immutable-by-convention column backed by a NumPy array.

The dataframe substrate stores every column as a :class:`Column`: a thin
wrapper around a one-dimensional ``numpy.ndarray`` that remembers a logical
*kind* (numeric, categorical, boolean) and provides the vectorised operations
the rest of the library needs (comparisons, value counts, frequency
distributions, missing-value handling).

The paper's algorithms only ever need relational column semantics, so this is
deliberately a small surface: enough to express filter predicates, group-by
keys, aggregations, and distribution comparisons.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ColumnError
from ..obs.metrics import REGISTRY as _METRICS_REGISTRY

#: Logical column kinds recognised by the substrate.
KIND_NUMERIC = "numeric"
KIND_CATEGORICAL = "categorical"
KIND_BOOLEAN = "boolean"

_VALID_KINDS = (KIND_NUMERIC, KIND_CATEGORICAL, KIND_BOOLEAN)


class FingerprintStats:
    """Process-wide counters of column fingerprint work (observability).

    ``full_hashes`` counts fingerprints computed by hashing the raw values;
    ``full_hash_max_rows`` tracks the largest column fully hashed since the
    last :meth:`reset`; ``persisted_hits`` counts fingerprints answered from
    a persisted storage fingerprint without touching the values.  The
    storage benchmarks use these to prove that the warm mmap explain path
    never re-hashes a stored column.
    """

    __slots__ = ("full_hashes", "full_hash_max_rows", "persisted_hits")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.full_hashes = 0
        self.full_hash_max_rows = 0
        self.persisted_hits = 0

    def as_dict(self) -> dict:
        return {
            "full_hashes": self.full_hashes,
            "full_hash_max_rows": self.full_hash_max_rows,
            "persisted_hits": self.persisted_hits,
        }

    def snapshot(self) -> dict:
        """A point-in-time copy of the counters (pairs with :meth:`delta`)."""
        return self.as_dict()

    def delta(self, before: dict) -> dict:
        """Counter increments since a :meth:`snapshot`.

        ``full_hash_max_rows`` is a high-water mark, not a counter, so the
        delta reports its *current* value — subtracting two maxima means
        nothing.  With :func:`repro.obs.metrics.capture` this replaces the
        ad-hoc before/after arithmetic the module-global counters force on
        callers (they bleed across tests otherwise).
        """
        payload = {name: value - before.get(name, 0)
                   for name, value in self.as_dict().items()}
        payload["full_hash_max_rows"] = self.full_hash_max_rows
        return payload


#: Global fingerprint counters (reset freely in tests/benchmarks).
FINGERPRINT_STATS = FingerprintStats()


def _collect_fingerprint_metrics():
    """Scrape-time samples of the fingerprint counters (zero hot-path cost)."""
    yield ("repro_fingerprint_full_hashes_total", "counter",
           "Column fingerprints computed by hashing the raw values.",
           float(FINGERPRINT_STATS.full_hashes), {})
    yield ("repro_fingerprint_persisted_hits_total", "counter",
           "Column fingerprints answered from persisted storage digests.",
           float(FINGERPRINT_STATS.persisted_hits), {})
    yield ("repro_fingerprint_full_hash_max_rows", "gauge",
           "Largest column fully hashed since the last reset.",
           float(FINGERPRINT_STATS.full_hash_max_rows), {})


_METRICS_REGISTRY.register_collector("fingerprint_stats", _collect_fingerprint_metrics)


def infer_kind(values: np.ndarray) -> str:
    """Infer the logical kind of a numpy array.

    Booleans map to ``boolean``, any integer/float dtype to ``numeric`` and
    everything else (strings, objects) to ``categorical``.
    """
    if values.dtype == np.bool_:
        return KIND_BOOLEAN
    if np.issubdtype(values.dtype, np.number):
        return KIND_NUMERIC
    return KIND_CATEGORICAL


def _coerce_array(values: Any) -> np.ndarray:
    """Convert arbitrary input (list, tuple, ndarray) to a 1-D numpy array."""
    if isinstance(values, np.ndarray):
        array = values
    else:
        array = np.asarray(list(values) if not isinstance(values, (list, tuple)) else values)
    if array.ndim != 1:
        raise ColumnError(f"columns must be one-dimensional, got shape {array.shape}")
    if array.dtype == np.object_:
        # Normalise python objects to strings so comparisons are well-defined.
        array = np.asarray([_normalise_object(v) for v in array], dtype=object)
    return array


def _normalise_object(value: Any) -> Any:
    if value is None:
        return None
    if isinstance(value, (np.str_, str)):
        return str(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    return str(value)


class Column:
    """A named, typed column of values.

    Parameters
    ----------
    name:
        Attribute name (``A`` in the paper's notation).
    values:
        Any one-dimensional sequence of values.
    kind:
        Optional logical kind override; inferred from the dtype when omitted.
    """

    __slots__ = ("name", "kind", "_data", "_loader", "_length",
                 "_persisted_fingerprint", "_factorized", "_sorted_order")

    def __init__(self, name: str, values: Any, kind: str | None = None) -> None:
        if not isinstance(name, str) or not name:
            raise ColumnError("column name must be a non-empty string")
        array = _coerce_array(values)
        resolved_kind = kind if kind is not None else infer_kind(array)
        if resolved_kind not in _VALID_KINDS:
            raise ColumnError(
                f"unknown column kind {resolved_kind!r}; expected one of {_VALID_KINDS}"
            )
        self.name = name
        self.kind = resolved_kind
        self._data = array
        self._loader = None
        self._length = None
        self._persisted_fingerprint = None
        self._factorized = None
        self._sorted_order = None

    @classmethod
    def _from_trusted(cls, name: str, values: np.ndarray, kind: str) -> "Column":
        """Internal fast constructor for arrays already produced by this class.

        Skips the per-element normalisation of object arrays; only used when
        the values are a slice/copy of an existing column's array (take, mask,
        concat, copy, rename), which is the hot path of the intervention
        computation.
        """
        column = cls.__new__(cls)
        column.name = name
        column.kind = kind
        column._data = values
        column._loader = None
        column._length = None
        column._persisted_fingerprint = None
        column._factorized = None
        column._sorted_order = None
        return column

    @classmethod
    def from_storage(cls, name: str, kind: str, length: int, *,
                     values: Optional[np.ndarray] = None,
                     loader: Optional[Callable[[], np.ndarray]] = None,
                     fingerprint: Optional[str] = None,
                     factorized: Optional[Tuple] = None) -> "Column":
        """Build a storage-backed column (see :mod:`repro.storage`).

        Exactly one of ``values`` (an already memory-mapped, read-only
        array) or ``loader`` (a zero-argument callable materialising the
        values on first touch; it must return a *read-only* array) is
        required.  ``fingerprint`` is the persisted content fingerprint
        recorded when the column was written: because the backing array is
        read-only, the content cannot drift, so :meth:`fingerprint` returns
        it without re-hashing the values.  ``factorized`` optionally seeds
        the factorization cache from persisted dictionary codes.
        """
        if (values is None) == (loader is None):
            raise ColumnError("from_storage needs exactly one of values/loader")
        if values is not None and values.flags.writeable:
            raise ColumnError("storage-backed columns must wrap read-only arrays")
        column = cls.__new__(cls)
        column.name = name
        column.kind = kind
        column._data = values
        column._loader = loader
        column._length = int(length)
        column._persisted_fingerprint = fingerprint
        column._factorized = factorized
        column._sorted_order = None
        return column

    # ------------------------------------------------------------------ dunder
    @property
    def values(self) -> np.ndarray:
        """The backing array; storage-backed columns materialise on first touch."""
        data = self._data
        if data is None:
            data = self._loader()
            self._data = data
        return data

    def __len__(self) -> int:
        if self._data is None:
            return self._length
        return int(self._data.shape[0])

    def __iter__(self):
        return iter(self.values.tolist())

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            value = self.values[int(index)]
            return value.item() if isinstance(value, np.generic) else value
        return Column._from_trusted(self.name, self.values[index], self.kind)

    def __eq__(self, other: object) -> bool:  # pragma: no cover - convenience
        if not isinstance(other, Column):
            return NotImplemented
        return (
            self.name == other.name
            and self.kind == other.kind
            and len(self) == len(other)
            and bool(np.all(self.values == other.values))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(str(v) for v in self.values[:5].tolist())
        suffix = ", ..." if len(self) > 5 else ""
        return f"Column({self.name!r}, kind={self.kind}, n={len(self)}, [{preview}{suffix}])"

    # ------------------------------------------------------------- predicates
    @property
    def is_numeric(self) -> bool:
        """True when the column holds numeric (int/float) values."""
        return self.kind == KIND_NUMERIC

    @property
    def is_categorical(self) -> bool:
        """True when the column holds categorical (string/object) values."""
        return self.kind == KIND_CATEGORICAL

    @property
    def is_boolean(self) -> bool:
        """True when the column holds boolean values."""
        return self.kind == KIND_BOOLEAN

    # ------------------------------------------------------------ construction
    def rename(self, name: str) -> "Column":
        """Return a copy of this column under a different name."""
        return Column._from_trusted(name, self.values, self.kind)

    def take(self, indices: np.ndarray) -> "Column":
        """Return a new column containing ``values[indices]`` in order."""
        return Column._from_trusted(self.name, self.values[indices], self.kind)

    def mask(self, keep: np.ndarray) -> "Column":
        """Return a new column with only the rows where ``keep`` is True."""
        if keep.dtype != np.bool_:
            raise ColumnError("mask requires a boolean array")
        if keep.shape[0] != len(self):
            raise ColumnError(
                f"mask length {keep.shape[0]} does not match column length {len(self)}"
            )
        return Column._from_trusted(self.name, self.values[keep], self.kind)

    def concat(self, other: "Column") -> "Column":
        """Concatenate two columns (used by union and join materialisation)."""
        if self.kind != other.kind:
            # Mixed kinds degrade to categorical, mirroring relational union
            # semantics where heterogenous columns become strings.
            left = np.asarray([str(v) for v in self.values], dtype=object)
            right = np.asarray([str(v) for v in other.values], dtype=object)
            return Column(self.name, np.concatenate([left, right]), kind=KIND_CATEGORICAL)
        return Column._from_trusted(
            self.name, np.concatenate([self.values, other.values]), self.kind
        )

    def copy(self) -> "Column":
        """Return a deep copy of the column."""
        return Column._from_trusted(self.name, self.values.copy(), self.kind)

    # -------------------------------------------------------------- statistics
    def null_mask(self) -> np.ndarray:
        """Boolean array marking missing values (NaN for numeric, None for categorical)."""
        if self.is_numeric:
            return np.isnan(self.values.astype(float))
        if self.is_boolean:
            return np.zeros(len(self), dtype=bool)
        # Object arrays: element-wise comparison against None is vectorised.
        return np.asarray(self.values == np.asarray(None, dtype=object), dtype=bool)

    def dropna_values(self) -> np.ndarray:
        """Values of the column with missing entries removed."""
        return self.values[~self.null_mask()]

    def factorize(self) -> tuple:
        """Integer codes and unique values of the column.

        Returns ``(codes, uniques)`` where ``codes`` is an int64 array with
        ``codes[i]`` the index of row ``i``'s value in ``uniques`` and ``-1``
        for missing values.  ``uniques`` is a list of python values in sorted
        order.  This is the vectorised workhorse behind value counts,
        group-by, joins, and the frequency partitioner.  The result is cached
        on the column (columns are immutable by convention).
        """
        if self._factorized is not None:
            return self._factorized
        self._factorized = self._compute_factorization()
        return self._factorized

    def _compute_factorization(self) -> tuple:
        missing = self.null_mask()
        codes = np.full(len(self), -1, dtype=np.int64)
        present = ~missing
        if not present.any():
            return codes, []
        if self.is_numeric or self.is_boolean:
            observed = self.values[present].astype(float)
            uniques, inverse = np.unique(observed, return_inverse=True)
            codes[present] = inverse
            return codes, [u.item() for u in uniques]
        observed = np.asarray([str(v) for v in self.values[present]], dtype=object)
        uniques, inverse = np.unique(observed.astype(str), return_inverse=True)
        codes[present] = inverse
        return codes, [str(u) for u in uniques]

    def fingerprint(self) -> str:
        """Stable content fingerprint of the column (name, kind, and values).

        Two columns carry the same fingerprint exactly when they hold equal
        values under the same name and kind, regardless of object identity —
        the keying primitive of the session-level caches
        (:mod:`repro.session`).  The hash is recomputed from the raw values on
        every call (it is *not* cached on the column), so an in-place
        mutation of the backing array changes the fingerprint and session
        caches treat the mutated column as new content.

        Storage-backed columns (:meth:`from_storage`) are the exception:
        their backing buffer is a read-only mmap (or a read-only
        materialisation of one), so the content provably cannot have
        drifted and the fingerprint persisted at write time is returned
        without touching the data.  The shortcut deactivates itself the
        moment the backing array is writeable again (e.g. a caller flipped
        the flag), falling back to a full hash.
        """
        persisted = self._persisted_fingerprint
        if persisted is not None:
            data = self._data
            if data is None or not data.flags.writeable:
                FINGERPRINT_STATS.persisted_hits += 1
                return persisted
        FINGERPRINT_STATS.full_hashes += 1
        FINGERPRINT_STATS.full_hash_max_rows = max(
            FINGERPRINT_STATS.full_hash_max_rows, len(self)
        )
        digest = hashlib.blake2b(digest_size=16)
        digest.update(f"{len(self.name)}:".encode())
        digest.update(self.name.encode())
        digest.update(self.kind.encode())
        values = self.values
        digest.update(f"{values.size}:".encode())
        if self.is_numeric or self.is_boolean:
            # The dtype tag keeps byte-identical arrays of different dtypes
            # (e.g. int64 vs float64 zeros) from colliding.
            digest.update(values.dtype.str.encode())
            digest.update(np.ascontiguousarray(values).tobytes())
        elif values.size:
            # Object arrays: hash a canonical string rendering, vectorised
            # (a python-level loop here dominates warm-path session costs).
            # ``astype("U")`` renders every value through ``str()`` into a
            # fixed-width UCS-4 array whose raw buffer is hashed directly.
            # The combination hashed — the dtype tag (width + byte order),
            # the fixed-width records, the per-value character lengths, and
            # the missing-value mask — decodes uniquely: a record pins every
            # codepoint up to trailing-NUL padding, the character length
            # disambiguates genuine trailing NUL characters from padding,
            # and the mask separates None from any string (including "").
            # No splitting ambiguity is possible, so ["a\x00b"] can never
            # collide with ["a", "b"].
            null = self.null_mask()
            cleaned = values
            if null.any():
                cleaned = values.copy()
                cleaned[null] = ""
            rendered = cleaned.astype("U")
            digest.update(rendered.dtype.str.encode())
            digest.update(rendered.tobytes())
            digest.update(np.char.str_len(rendered).astype(np.int64).tobytes())
            digest.update(null.tobytes())
        return digest.hexdigest()

    def sorted_order(self) -> np.ndarray:
        """Stable argsort of the values, cached on the column.

        Numeric and boolean columns sort by float value with NaN last (the
        ``np.argsort`` convention); categorical columns sort by the string
        rendering of each value.  The cache makes repeated order-dependent
        computations — :meth:`DataFrame.sort_values` and the incremental
        contribution backend's KS re-scoring, which places a column's values
        on a sorted support from one shared argsort — pay the
        ``O(n log n)`` sort exactly once per column.
        """
        if self._sorted_order is None:
            if self.is_numeric or self.is_boolean:
                self._sorted_order = np.argsort(self.values.astype(float), kind="stable")
            else:
                keys = np.asarray([str(v) for v in self.values])
                self._sorted_order = np.argsort(keys, kind="stable")
        return self._sorted_order

    def unique(self) -> list:
        """Distinct non-missing values (sorted)."""
        return self.factorize()[1]

    def n_unique(self) -> int:
        """Number of distinct non-missing values."""
        return len(self.factorize()[1])

    def value_counts(self) -> dict:
        """Mapping from value to the number of rows holding that value."""
        codes, uniques = self.factorize()
        if not uniques:
            return {}
        counts = np.bincount(codes[codes >= 0], minlength=len(uniques))
        return {value: int(count) for value, count in zip(uniques, counts)}

    def frequencies(self) -> dict:
        """Mapping from value to relative frequency (sums to 1 over non-missing rows)."""
        counts = self.value_counts()
        total = sum(counts.values())
        if total == 0:
            return {}
        return {value: count / total for value, count in counts.items()}

    def to_float(self) -> np.ndarray:
        """Return the values as a float array; raises for categorical columns."""
        if not (self.is_numeric or self.is_boolean):
            raise ColumnError(f"column {self.name!r} is not numeric")
        return self.values.astype(float)

    def min(self) -> float:
        """Minimum of the non-missing numeric values."""
        values = self.dropna_values()
        return float(np.min(values.astype(float))) if len(values) else float("nan")

    def max(self) -> float:
        """Maximum of the non-missing numeric values."""
        values = self.dropna_values()
        return float(np.max(values.astype(float))) if len(values) else float("nan")

    def mean(self) -> float:
        """Mean of the non-missing numeric values."""
        values = self.dropna_values()
        return float(np.mean(values.astype(float))) if len(values) else float("nan")

    def std(self, ddof: int = 1) -> float:
        """Sample standard deviation of the non-missing numeric values."""
        values = self.dropna_values()
        if len(values) <= ddof:
            return 0.0
        return float(np.std(values.astype(float), ddof=ddof))

    def sum(self) -> float:
        """Sum of the non-missing numeric values."""
        values = self.dropna_values()
        return float(np.sum(values.astype(float))) if len(values) else 0.0

    def tolist(self) -> list:
        """Return the values as a plain python list."""
        return [v.item() if isinstance(v, np.generic) else v for v in self.values]


def column_from_mapping(name: str, mapping: Mapping[Any, Any], keys: Sequence[Any]) -> Column:
    """Build a column by looking up each key of ``keys`` in ``mapping``.

    Convenience used by the many-to-one partitioner and dataset generators to
    derive one column from another (e.g. year -> decade).
    """
    values = [mapping.get(key) for key in keys]
    return Column(name, np.asarray(values, dtype=object))


def ensure_same_length(columns: Iterable[Column]) -> int:
    """Verify all columns have the same length and return that length."""
    lengths = {len(column) for column in columns}
    if not lengths:
        return 0
    if len(lengths) > 1:
        raise ColumnError(f"columns have mismatching lengths: {sorted(lengths)}")
    return lengths.pop()
