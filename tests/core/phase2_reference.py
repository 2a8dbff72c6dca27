"""Reference phase 2: the row-partition code before it was vectorised.

A verbatim copy of the earlier ``RowPartition.validate``, frequency ranking
(a Python ``sorted`` over every distinct value), numeric binning (two
``np.unique`` passes, quantiles over every non-NaN value),
``ManyToOnePartitioner.find_companions`` (three ``np.unique`` passes per
other column) and ``build_partitions`` (every partitioner called once per
set count).  ``test_partition_oracle.py`` checks that the library's
partitions are identical to these on every input the copy handles; the copy
is not used anywhere else.  Its labels call ``int(value)``, so it raises
``OverflowError`` on ``±inf``: keep infinities out of oracle inputs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.partition import RowPartition, RowSet
from repro.dataframe.frame import DataFrame
from repro.errors import PartitionError


def validate(partition: RowPartition) -> None:
    """Check Definition 3.8: sets are pairwise disjoint."""
    seen: set = set()
    for row_set in partition.all_sets():
        indices = set(int(i) for i in row_set.indices)
        overlap = seen & indices
        if overlap:
            raise PartitionError(
                f"row sets of partition on {partition.source_attribute!r} overlap "
                f"({len(overlap)} shared rows)"
            )
        seen |= indices


class ReferencePartition(RowPartition):
    """A :class:`RowPartition` checked by the reference :func:`validate`."""

    def validate(self) -> None:
        validate(self)


class FrequencyPartitioner:
    method = "frequency"

    def partition(self, frame: DataFrame, attribute: str, n_sets: int,
                  input_index: int = 0) -> Optional[RowPartition]:
        if attribute not in frame:
            return None
        column = frame[attribute]
        codes, uniques = column.factorize()
        if len(uniques) < 2:
            return None
        counts = np.bincount(codes[codes >= 0], minlength=len(uniques))
        ranked = sorted(
            range(len(uniques)), key=lambda position: (-counts[position], str(uniques[position]))
        )
        top_positions = ranked[:n_sets]

        sets = []
        covered = np.zeros(frame.num_rows, dtype=bool)
        for position in top_positions:
            member_indices = np.flatnonzero(codes == position)
            covered[member_indices] = True
            value = uniques[position]
            sets.append(RowSet(
                label=_format_value(value),
                indices=member_indices.astype(np.int64),
                source_attribute=attribute,
                label_attribute=attribute,
                method=self.method,
                input_index=input_index,
                values=(value,),
            ))
        ignore_indices = np.flatnonzero(~covered)
        ignore_set = None
        if ignore_indices.size:
            ignore_set = RowSet(
                label="(other values)",
                indices=ignore_indices.astype(np.int64),
                source_attribute=attribute,
                label_attribute=attribute,
                method=self.method,
                input_index=input_index,
                is_ignore=True,
            )
        return ReferencePartition(
            sets=sets, ignore_set=ignore_set, source_attribute=attribute,
            method=self.method, input_index=input_index, n_requested=n_sets,
        )


class NumericBinningPartitioner:
    method = "binning"

    def partition(self, frame: DataFrame, attribute: str, n_sets: int,
                  input_index: int = 0) -> Optional[RowPartition]:
        if attribute not in frame:
            return None
        column = frame[attribute]
        if not column.is_numeric:
            return None
        values = column.to_float()
        finite_mask = ~np.isnan(values)
        finite = values[finite_mask]
        if finite.size == 0 or np.unique(finite).size < 2:
            return None
        n_bins = min(n_sets, int(np.unique(finite).size))
        quantiles = np.quantile(finite, np.linspace(0.0, 1.0, n_bins + 1))
        edges = np.unique(quantiles)
        if edges.size < 2:
            return None
        # Assign each row to a bin; the last bin is closed on the right.
        bin_ids = np.digitize(values, edges[1:-1], right=True)
        sets: List[RowSet] = []
        ignore_indices = np.flatnonzero(~finite_mask)
        for bin_id in range(edges.size - 1):
            member_mask = finite_mask & (bin_ids == bin_id)
            indices = np.flatnonzero(member_mask)
            if indices.size == 0:
                continue
            low, high = float(edges[bin_id]), float(edges[bin_id + 1])
            sets.append(RowSet(
                label=_format_interval(low, high, closed=bin_id == edges.size - 2),
                indices=indices.astype(np.int64),
                source_attribute=attribute,
                label_attribute=attribute,
                method=self.method,
                input_index=input_index,
                interval=(low, high),
            ))
        if len(sets) < 2:
            return None
        ignore_set = None
        if ignore_indices.size:
            ignore_set = RowSet(
                label="(missing values)",
                indices=ignore_indices.astype(np.int64),
                source_attribute=attribute,
                label_attribute=attribute,
                method=self.method,
                input_index=input_index,
                is_ignore=True,
            )
        return ReferencePartition(
            sets=sets, ignore_set=ignore_set, source_attribute=attribute,
            method=self.method, input_index=input_index, n_requested=n_sets,
        )


class ManyToOnePartitioner:
    method = "many_to_one"

    def __init__(self, max_companions: int = 3, max_distinct_ratio: float = 0.9) -> None:
        self.max_companions = max_companions
        self.max_distinct_ratio = max_distinct_ratio
        self._frequency = FrequencyPartitioner()

    def partition(self, frame: DataFrame, attribute: str, n_sets: int,
                  input_index: int = 0) -> Optional[RowPartition]:
        companions = self.find_companions(frame, attribute)
        for companion in companions[: self.max_companions]:
            base = self._frequency.partition(frame, companion, n_sets, input_index=input_index)
            if base is None:
                continue
            sets = [
                RowSet(
                    label=row_set.label,
                    indices=row_set.indices,
                    source_attribute=attribute,
                    label_attribute=companion,
                    method=self.method,
                    input_index=input_index,
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
                    input_index=input_index,
                    is_ignore=True,
                )
            return ReferencePartition(
                sets=sets, ignore_set=ignore_set, source_attribute=attribute,
                method=self.method, input_index=input_index, n_requested=n_sets,
            )
        return None

    def find_companions(self, frame: DataFrame, attribute: str) -> List[str]:
        if attribute not in frame:
            return []
        source_codes, source_uniques = frame[attribute].factorize()
        source_distinct = len(source_uniques)
        if source_distinct < 2:
            return []
        source_valid = source_codes >= 0
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
            if not both_valid.any():
                continue
            pair_codes = source_codes[both_valid] * distinct_b + other_codes[both_valid]
            distinct_pairs = np.unique(pair_codes).size
            distinct_a_present = np.unique(source_codes[both_valid]).size
            functional = distinct_pairs == distinct_a_present
            strictly_coarser = np.unique(other_codes[both_valid]).size < distinct_a_present
            if functional and strictly_coarser:
                candidates.append((distinct_b, other))
        candidates.sort()
        return [name for _, name in candidates]


def default_partitioners() -> list:
    return [FrequencyPartitioner(), NumericBinningPartitioner(), ManyToOnePartitioner()]


def build_partitions(frame: DataFrame, attributes: Sequence[str], n_sets_options: Sequence[int],
                     partitioners: Sequence, input_index: int = 0,
                     min_group_values: int = 2) -> List[RowPartition]:
    partitions: List[RowPartition] = []
    seen_signatures: set = set()
    for attribute in attributes:
        if attribute not in frame:
            continue
        if frame[attribute].n_unique() < min_group_values:
            continue
        for n_sets in n_sets_options:
            for partitioner in partitioners:
                partition = partitioner.partition(frame, attribute, n_sets, input_index=input_index)
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


def _format_value(value) -> str:
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


def _format_interval(low: float, high: float, closed: bool) -> str:
    bracket = "]" if closed else ")"
    return f"[{_format_number(low)}, {_format_number(high)}{bracket}"


def _format_number(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.3g}"
