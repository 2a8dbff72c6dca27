"""Row partitions of the input dataframe (paper §3.5).

A *row partition* splits the input dataframe into ``n`` disjoint
sets-of-rows plus an optional *ignore-set* ``R̂`` (Definition 3.8).  FEDEX
ships three partition families and accepts user-defined ones:

* **Frequency-based** — one set per most-prevalent value of an attribute,
  remaining rows in the ignore-set.
* **Numeric-binning** — equal-frequency intervals of a numeric attribute
  (empty ignore-set).
* **Many-to-one** — the attribute is mapped through a strictly coarser
  attribute ``B`` (functional dependency ``A → B``), then frequency-split
  over ``B`` (e.g. year → decade).

The built-in families work from each column's cached factorization
(:meth:`Column.factorize`) and serve every requested set count of one
(frame, attribute) from one pass: one frequency ranking, one companion
search, one distinct count.  Nothing is kept between calls.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..dataframe.frame import DataFrame
from ..errors import PartitionError


@dataclass
class RowSet:
    """A set-of-rows ``R`` of an input dataframe.

    Attributes
    ----------
    label:
        Human-readable label of the set (the attribute value, the interval
        bounds, or the coarser attribute's value), used in captions.
    indices:
        Positional row indices of the input dataframe belonging to the set.
    source_attribute:
        The attribute the partition was built on.
    label_attribute:
        The attribute whose value names the set.  Equal to
        ``source_attribute`` except for many-to-one partitions, where it is
        the coarser attribute ``B``.
    method:
        Partition family name (``frequency`` / ``binning`` / ``many_to_one``
        or a custom name).
    input_index:
        Which input dataframe of the step the indices refer to.
    is_ignore:
        True for the ignore-set ``R̂`` (never becomes an explanation).
    values:
        The raw value(s) of ``label_attribute`` defining this set (used to
        locate the same rows in the output dataframe for captions/plots).
    interval:
        For binning partitions, the ``(low, high)`` bounds of the interval.
    """

    label: str
    indices: np.ndarray
    source_attribute: str
    label_attribute: str
    method: str
    input_index: int = 0
    is_ignore: bool = False
    values: Tuple = ()
    interval: Optional[Tuple[float, float]] = None

    @property
    def size(self) -> int:
        """Number of rows in the set."""
        return int(self.indices.size)

    def key(self) -> Tuple:
        """Hashable identity of the set (used for ranking-metric comparisons)."""
        return (self.method, self.source_attribute, self.label_attribute, self.label,
                self.input_index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RowSet({self.label!r}, n={self.size}, attr={self.source_attribute!r}, "
                f"method={self.method})")


@dataclass
class RowPartition:
    """A full partition: the sets-of-rows plus the optional ignore-set."""

    sets: List[RowSet]
    ignore_set: Optional[RowSet] = None
    source_attribute: str = ""
    method: str = ""
    input_index: int = 0
    n_requested: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check Definition 3.8: sets are pairwise disjoint.

        Walks the sets in order over one boolean mask of the rows already
        seen (offset by the smallest index, so the mask spans only the rows
        the sets name).  The first set that reaches a seen row fails, naming
        how many distinct rows it shares with the sets before it; a row
        repeated within one set is not an overlap.
        """
        rows = [np.asarray(row_set.indices).astype(np.int64, copy=False)
                for row_set in self.all_sets()]
        rows = [indices for indices in rows if indices.size]
        if not rows:
            return
        low = min(int(indices.min()) for indices in rows)
        seen = np.zeros(max(int(indices.max()) for indices in rows) - low + 1, dtype=bool)
        for indices in rows:
            offsets = indices - low
            shared = seen[offsets]
            if shared.any():
                raise PartitionError(
                    f"row sets of partition on {self.source_attribute!r} overlap "
                    f"({np.unique(offsets[shared]).size} shared rows)"
                )
            seen[offsets] = True

    def all_sets(self) -> List[RowSet]:
        """Candidate sets plus the ignore-set (when present)."""
        if self.ignore_set is not None:
            return self.sets + [self.ignore_set]
        return list(self.sets)

    def covered_rows(self) -> int:
        """Total number of rows covered by the partition (including ignore-set)."""
        return sum(row_set.size for row_set in self.all_sets())

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)


class Partitioner(ABC):
    """Base class of the partition families."""

    #: Registry / caption name of the family.
    method: str = "partition"

    @abstractmethod
    def partition(self, frame: DataFrame, attribute: str, n_sets: int,
                  input_index: int = 0) -> Optional[RowPartition]:
        """Partition ``frame`` on ``attribute`` into up to ``n_sets`` sets-of-rows.

        Returns ``None`` when the method is not applicable to the attribute
        (e.g. numeric binning of a categorical column, or no many-to-one
        companion exists).
        """

    def partition_counts(self, frame: DataFrame, attribute: str, counts: Sequence[int],
                         input_index: int = 0) -> List[Optional[RowPartition]]:
        """One :meth:`partition` result per set count in ``counts``, in order."""
        return [self.partition(frame, attribute, n_sets, input_index=input_index)
                for n_sets in counts]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


#: One set count, or a tuple of them (answered with one result per count).
SetCounts = Union[int, Tuple[int, ...]]


class _SharedWorkPartitioner(Partitioner):
    """A built-in family: every set count of one (frame, attribute) in one pass.

    ``partition`` also takes a tuple of set counts and then returns one
    result per count, built by ``_partitions`` from work that does not
    depend on the count (a ranking, a companion search, a distinct count).
    Each family defines ``partition`` on its own class, so the family's
    name times all of its work (``perfbench/pb_ledger.py`` wraps it there).
    A subclass that overrides ``partition`` receives that tuple too.
    """

    def partition_counts(self, frame: DataFrame, attribute: str, counts: Sequence[int],
                         input_index: int = 0) -> List[Optional[RowPartition]]:
        return self.partition(frame, attribute, tuple(counts), input_index=input_index)

    def _each_count(self, frame: DataFrame, attribute: str, n_sets: SetCounts,
                    input_index: int):
        if isinstance(n_sets, tuple):
            return self._partitions(frame, attribute, n_sets, input_index)
        return self._partitions(frame, attribute, (n_sets,), input_index)[0]

    @abstractmethod
    def _partitions(self, frame: DataFrame, attribute: str, counts: Tuple[int, ...],
                    input_index: int) -> List[Optional[RowPartition]]:
        """One partition (or ``None``) per set count in ``counts``."""


class FrequencyPartitioner(_SharedWorkPartitioner):
    """One set-of-rows per most-prevalent value; remaining rows are ignored."""

    method = "frequency"

    def partition(self, frame: DataFrame, attribute: str, n_sets: SetCounts,
                  input_index: int = 0):
        """Sets of the ``n_sets`` most frequent values (a tuple of counts: one per count)."""
        return self._each_count(frame, attribute, n_sets, input_index)

    def _partitions(self, frame: DataFrame, attribute: str, counts: Tuple[int, ...],
                    input_index: int) -> List[Optional[RowPartition]]:
        if attribute not in frame:
            return [None] * len(counts)
        codes, uniques = frame[attribute].factorize()
        if len(uniques) < 2:
            return [None] * len(counts)
        top = _ranked_values(codes, uniques, max(counts))
        labels = [_format_value(uniques[position]) for position in top]
        members = [np.flatnonzero(codes == position) for position in top]
        # Each row's rank among the top values, len(top) for any other row;
        # a missing row's code -1 reads the extra last slot.
        rank = np.full(len(uniques) + 1, len(top), dtype=np.int64)
        rank[top] = np.arange(len(top))
        row_rank = rank[codes]
        partitions: List[Optional[RowPartition]] = []
        for n_sets in counts:
            sets = [
                RowSet(
                    label=label,
                    indices=indices,
                    source_attribute=attribute,
                    label_attribute=attribute,
                    method=self.method,
                    input_index=input_index,
                    values=(uniques[position],),
                )
                for position, label, indices in zip(top[:n_sets], labels, members)
            ]
            ignore_indices = np.flatnonzero(row_rank >= len(sets))
            ignore_set = None
            if ignore_indices.size:
                ignore_set = RowSet(
                    label="(other values)",
                    indices=ignore_indices,
                    source_attribute=attribute,
                    label_attribute=attribute,
                    method=self.method,
                    input_index=input_index,
                    is_ignore=True,
                )
            partitions.append(RowPartition(
                sets=sets, ignore_set=ignore_set, source_attribute=attribute,
                method=self.method, input_index=input_index, n_requested=n_sets,
            ))
        return partitions


class NumericBinningPartitioner(_SharedWorkPartitioner):
    """Equal-frequency intervals of a numeric attribute (empty ignore-set).

    The interval edges are quantiles of the finite values; ``-inf`` and
    ``inf`` fall in the outer bins, whose bounds extend to meet them.
    """

    method = "binning"

    def partition(self, frame: DataFrame, attribute: str, n_sets: SetCounts,
                  input_index: int = 0):
        """Up to ``n_sets`` equal-frequency bins (a tuple of counts: one per count)."""
        return self._each_count(frame, attribute, n_sets, input_index)

    def _partitions(self, frame: DataFrame, attribute: str, counts: Tuple[int, ...],
                    input_index: int) -> List[Optional[RowPartition]]:
        if attribute not in frame or not frame[attribute].is_numeric:
            return [None] * len(counts)
        column = frame[attribute]
        distinct = column.factorize()[1]  # sorted non-missing values
        low_inf = bool(distinct) and distinct[0] == -math.inf
        high_inf = bool(distinct) and distinct[-1] == math.inf
        finite_distinct = len(distinct) - low_inf - high_inf
        if finite_distinct < 2:
            return [None] * len(counts)
        values = column.to_float()
        present = ~np.isnan(values)
        finite = values[np.isfinite(values)]
        ignore_indices = np.flatnonzero(~present)
        partitions: List[Optional[RowPartition]] = []
        for n_sets in counts:
            n_bins = min(n_sets, finite_distinct)
            edges = np.unique(np.quantile(finite, np.linspace(0.0, 1.0, n_bins + 1)))
            if edges.size < 2:
                partitions.append(None)
                continue
            if low_inf:
                edges[0] = -math.inf
            if high_inf:
                edges[-1] = math.inf
            # Assign each row to a bin; the last bin is closed on the right.
            bin_ids = np.digitize(values, edges[1:-1], right=True)
            sets: List[RowSet] = []
            for bin_id in range(edges.size - 1):
                indices = np.flatnonzero(present & (bin_ids == bin_id))
                if indices.size == 0:
                    continue
                low, high = float(edges[bin_id]), float(edges[bin_id + 1])
                sets.append(RowSet(
                    label=_format_interval(low, high, closed=bin_id == edges.size - 2),
                    indices=indices,
                    source_attribute=attribute,
                    label_attribute=attribute,
                    method=self.method,
                    input_index=input_index,
                    interval=(low, high),
                ))
            if len(sets) < 2:
                partitions.append(None)
                continue
            ignore_set = None
            if ignore_indices.size:
                ignore_set = RowSet(
                    label="(missing values)",
                    indices=ignore_indices,
                    source_attribute=attribute,
                    label_attribute=attribute,
                    method=self.method,
                    input_index=input_index,
                    is_ignore=True,
                )
            partitions.append(RowPartition(
                sets=sets, ignore_set=ignore_set, source_attribute=attribute,
                method=self.method, input_index=input_index, n_requested=n_sets,
            ))
        return partitions


class ManyToOnePartitioner(_SharedWorkPartitioner):
    """Partition an attribute through a strictly coarser attribute ``B``.

    For the attribute ``A`` we search for attributes ``B`` such that ``A``
    functionally determines ``B`` (condition 1) while ``B`` merges at least
    two distinct ``A`` values (condition 2).  Rows are then frequency-split
    on ``B``; the coarser attribute's values become the labels (e.g.
    year → decade in the running example).
    """

    method = "many_to_one"

    def __init__(self, max_companions: int = 3, max_distinct_ratio: float = 0.9) -> None:
        self.max_companions = max_companions
        self.max_distinct_ratio = max_distinct_ratio
        self._frequency = FrequencyPartitioner()

    def partition(self, frame: DataFrame, attribute: str, n_sets: SetCounts,
                  input_index: int = 0):
        """Frequency sets of the first usable companion (a tuple of counts: one per count)."""
        return self._each_count(frame, attribute, n_sets, input_index)

    def _partitions(self, frame: DataFrame, attribute: str, counts: Tuple[int, ...],
                    input_index: int) -> List[Optional[RowPartition]]:
        for companion in self.find_companions(frame, attribute)[: self.max_companions]:
            bases = self._frequency.partition(frame, companion, counts, input_index=input_index)
            if all(base is None for base in bases):
                continue
            return [None if base is None else self._relabel(base, attribute, companion)
                    for base in bases]
        return [None] * len(counts)

    def _relabel(self, base: RowPartition, attribute: str, companion: str) -> RowPartition:
        sets = [
            RowSet(
                label=row_set.label,
                indices=row_set.indices,
                source_attribute=attribute,
                label_attribute=companion,
                method=self.method,
                input_index=base.input_index,
                values=row_set.values,
            )
            for row_set in base.sets
        ]
        ignore_set = None
        if base.ignore_set is not None:
            ignore_set = RowSet(
                label=base.ignore_set.label,
                indices=base.ignore_set.indices,
                source_attribute=attribute,
                label_attribute=companion,
                method=self.method,
                input_index=base.input_index,
                is_ignore=True,
            )
        return RowPartition(
            sets=sets, ignore_set=ignore_set, source_attribute=attribute,
            method=self.method, input_index=base.input_index, n_requested=base.n_requested,
        )

    def find_companions(self, frame: DataFrame, attribute: str) -> List[str]:
        """Attributes ``B`` with a many-to-one relationship from ``attribute``.

        Checks the two conditions of §3.5 and ranks candidates by how much
        coarser they are (fewer distinct values first), which tends to yield
        the most readable explanations.  Both conditions are read off the
        cached factorization codes of the rows where ``A`` and ``B`` are
        present, in O(rows) per candidate: ``A → B`` holds exactly when
        scattering one ``B`` code per ``A`` code and gathering it back
        reproduces every row's ``B`` code, and ``B`` is strictly coarser
        when fewer distinct ``B`` codes than ``A`` codes occur there.
        """
        if attribute not in frame:
            return []
        source_codes, source_uniques = frame[attribute].factorize()
        source_distinct = len(source_uniques)
        if source_distinct < 2:
            return []
        source_valid = source_codes >= 0
        mapped = np.empty(source_distinct, dtype=np.int64)
        candidates: List[Tuple[int, str]] = []
        for other in frame.column_names:
            if other == attribute:
                continue
            other_codes, other_uniques = frame[other].factorize()
            distinct_b = len(other_uniques)
            if distinct_b < 2 or distinct_b >= source_distinct:
                continue
            if distinct_b > self.max_distinct_ratio * source_distinct:
                continue
            both_valid = source_valid & (other_codes >= 0)
            source_present = source_codes[both_valid]
            if source_present.size == 0:
                continue
            other_present = other_codes[both_valid]
            mapped[source_present] = other_present
            if not np.array_equal(mapped[source_present], other_present):
                continue
            distinct_a_present = np.count_nonzero(np.bincount(source_present,
                                                              minlength=source_distinct))
            distinct_b_present = np.count_nonzero(np.bincount(other_present,
                                                              minlength=distinct_b))
            if distinct_b_present < distinct_a_present:
                candidates.append((distinct_b, other))
        candidates.sort()
        return [name for _, name in candidates]


class MappingPartitioner(Partitioner):
    """User-defined partition via an explicit value-mapping function (§3.8).

    ``mapper`` receives a raw attribute value and returns the label of the
    set the row belongs to (returning ``None`` sends the row to the
    ignore-set).  Useful for custom date bucketing, geo roll-ups, etc.
    """

    def __init__(self, name: str, mapper) -> None:
        self.method = name
        self._mapper = mapper

    def partition(self, frame: DataFrame, attribute: str, n_sets: int,
                  input_index: int = 0) -> Optional[RowPartition]:
        if attribute not in frame:
            return None
        labels = [self._mapper(value) for value in frame[attribute].tolist()]
        buckets: Dict[str, List[int]] = {}
        ignore: List[int] = []
        for row_index, label in enumerate(labels):
            if label is None:
                ignore.append(row_index)
            else:
                buckets.setdefault(str(label), []).append(row_index)
        if len(buckets) < 2:
            return None
        ranked = sorted(buckets.items(), key=lambda item: (-len(item[1]), item[0]))[:n_sets]
        kept_labels = {label for label, _ in ranked}
        for label, indices in buckets.items():
            if label not in kept_labels:
                ignore.extend(indices)
        sets = [
            RowSet(
                label=label,
                indices=np.asarray(indices, dtype=np.int64),
                source_attribute=attribute,
                label_attribute=attribute,
                method=self.method,
                input_index=input_index,
                values=(label,),
            )
            for label, indices in ranked
        ]
        ignore_set = None
        if ignore:
            ignore_set = RowSet(
                label="(other values)",
                indices=np.asarray(sorted(ignore), dtype=np.int64),
                source_attribute=attribute,
                label_attribute=attribute,
                method=self.method,
                input_index=input_index,
                is_ignore=True,
            )
        return RowPartition(
            sets=sets, ignore_set=ignore_set, source_attribute=attribute,
            method=self.method, input_index=input_index, n_requested=n_sets,
        )


def default_partitioners(methods: Sequence[str] = ("frequency", "binning", "many_to_one")) -> List[Partitioner]:
    """The partitioners corresponding to the configured method names."""
    available: Dict[str, Partitioner] = {
        "frequency": FrequencyPartitioner(),
        "binning": NumericBinningPartitioner(),
        "many_to_one": ManyToOnePartitioner(),
    }
    unknown = [m for m in methods if m not in available]
    if unknown:
        raise PartitionError(f"unknown partition methods: {unknown}")
    return [available[m] for m in methods]


def build_partitions(frame: DataFrame, attributes: Sequence[str], n_sets_options: Sequence[int],
                     partitioners: Sequence[Partitioner], input_index: int = 0,
                     min_group_values: int = 2) -> List[RowPartition]:
    """All partitions of ``frame`` over the given attributes, methods, and sizes.

    Implements lines 3–6 of Algorithm 1: the union of every row-partition
    produced by every configured method, for every candidate attribute and
    every requested number of sets-of-rows, in that order (attribute, then
    set count, then partitioner).  Each partitioner is asked once per
    attribute for all set counts (:meth:`Partitioner.partition_counts`).
    Duplicate partitions (same method, attribute, and resulting set labels)
    are dropped.
    """
    partitions: List[RowPartition] = []
    seen_signatures: set = set()
    for attribute in attributes:
        if attribute not in frame:
            continue
        if frame[attribute].n_unique() < min_group_values:
            continue
        by_partitioner = [
            partitioner.partition_counts(frame, attribute, tuple(n_sets_options),
                                         input_index=input_index)
            for partitioner in partitioners
        ]
        for by_count in zip(*by_partitioner):
            for partition in by_count:
                if partition is None or len(partition) < 2:
                    continue
                signature = (
                    partition.method,
                    partition.source_attribute,
                    tuple(row_set.label for row_set in partition.sets),
                    input_index,
                )
                if signature in seen_signatures:
                    continue
                seen_signatures.add(signature)
                partitions.append(partition)
    return partitions


def _ranked_values(codes: np.ndarray, uniques: Sequence, cut: int) -> np.ndarray:
    """Positions in ``uniques`` of the ``cut`` most frequent values, best first.

    Ranked by (−count, ``str(value)``).  Only values whose count reaches the
    ``cut``-th largest count can place, so ``str()`` runs on those alone.
    """
    counts = np.bincount(codes[codes >= 0], minlength=len(uniques))
    cut = min(cut, len(uniques))
    threshold = np.partition(counts, len(counts) - cut)[len(counts) - cut]
    contenders = np.flatnonzero(counts >= threshold)
    names = np.array([str(uniques[position]) for position in contenders], dtype=object)
    order = np.lexsort((names, -counts[contenders]))
    return contenders[order[:cut]]


def _format_value(value) -> str:
    if isinstance(value, float) and math.isfinite(value) and value == int(value):
        return str(int(value))
    return str(value)


def _format_interval(low: float, high: float, closed: bool) -> str:
    bracket = "]" if closed else ")"
    return f"[{_format_number(low)}, {_format_number(high)}{bracket}"


def _format_number(value: float) -> str:
    if math.isfinite(value) and value == int(value):
        return str(int(value))
    return f"{value:.3g}"
