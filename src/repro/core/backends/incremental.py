"""The batched, structure-exploiting intervention backend.

Instead of re-running the operation per set-of-rows (the
:class:`~repro.core.backends.exact.ExactRerunBackend` semantics), this
backend derives every reduced interestingness score from structure that is
precomputed **once per (step, attribute)** and shared across all
interventions.  The sets of one partition are disjoint (Definition 3.8), so
one ``int64`` label per input row — the position of the set holding it, or
``-1`` — describes every intervention of the partition at once; output rows
take the label of the input row they derive from.

* **Group-by with decomposable aggregates** (sum / count / mean / min /
  max / median / std): one pass over the input assigns every row a group
  id.  Per-group counts and sums are precomputed, and every set's reduced
  aggregates follow by subtracting its rows' per-group partials, taken for
  all sets from one weighted ``bincount`` over (label, group).  min/max
  rescan the surviving values with one scatter per set, median reads order
  statistics off one shared group-major sort per set, and std re-aggregates
  only the groups a set touches, off the same kind of sort.
* **Filter / inner join / union / project**: the operation's row-level
  provenance (:meth:`~repro.operators.operations.Operation.row_mask`,
  through :func:`row_sources`) is computed once; every intervention's
  reduced output is a slice of the already-materialised output — the
  operation is never re-run.
* **KS re-scoring by counts**: each (input column, output column) pair's
  non-NaN values are placed once on one sorted support, read off the
  columns' cached argsorts.  One ``bincount`` over (label, value) gives
  every set's removed counts, and the KS statistic follows from integer
  cumulative counts divided by the kept totals
  (:func:`repro.stats.ks.ks_removed_counts_batch`).  Categorical columns
  take their removed counts from the same bincount over cached
  factorisation codes.

* **Right side of a left join**: removing right rows is *not* a slice of
  the output (left rows whose matches all disappear resurface as
  unmatched), but the join's match structure — pairs plus per-left-row
  match counts, computed once — determines every reduced output exactly,
  so no re-join is ever run.

Whenever the (operation, measure, attribute) combination falls outside the
structures above — custom measures, OLAP operations — the backend
transparently delegates to an embedded :class:`ExactRerunBackend`, so it is
*always* safe to use.

The slicing and KS paths reproduce the exact backend bit-for-bit (they apply
the same numpy operations to the same value multisets); the group-by path
differs only by float summation order, which equivalence tests bound at
``1e-9``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...dataframe.column import Column
from ...dataframe.frame import DataFrame
from ...dataframe.groupby import AGGREGATIONS, composite_key_codes
from ...operators.operations import GroupBy, Join
from ...stats.dispersion import coefficient_of_variation
from ...stats.ks import (
    ks_columns,
    ks_from_value_counts_batch,
    ks_removed_counts_batch,
    set_value_counts,
)
from ..interestingness import DiversityMeasure, ExceptionalityMeasure
from ..partition import RowSet
from .base import ContributionBackend
from .exact import ExactRerunBackend

_UNSET = object()


class IncrementalBackend(ContributionBackend):
    """Derives all interventions of a step from shared precomputed structure.

    An optional ``context`` (a :class:`~repro.session.cache.SessionCache` or
    anything with the same ``groupby_structure`` / ``row_sources`` hooks)
    memoizes the per-step shared structure across steps of an exploration
    session, keyed by content fingerprints of the inputs.
    """

    name = "incremental"

    def __init__(self, step, measure, context=None) -> None:
        super().__init__(step, measure)
        self._context = context
        self._fallback = ExactRerunBackend(step, measure)
        self._plans: Dict[Tuple[int, str], object] = {}
        self._row_sources = _UNSET
        self._groupby_structure = _UNSET
        self._left_join_structure = _UNSET

    # ------------------------------------------------------------------ public
    def reduced_score(self, row_set: RowSet, attribute: str) -> float:
        plan = self._plan_for(row_set.input_index, attribute)
        if plan is None:
            return self._fallback.reduced_score(row_set, attribute)
        n_rows = self.step.inputs[row_set.input_index].num_rows
        return float(plan.reduced_scores(_set_labels([row_set], n_rows), 1)[0])

    def partition_contributions(self, partition, attribute: str,
                                baseline: float) -> List[float]:
        """Raw contributions of a whole partition, from one set labelling.

        Every plan scores all sets-of-rows of the partition from one label
        per input row (:func:`_set_labels`); the exact fallback keeps the
        per-set walk of the base class.
        """
        plan = self._plan_for(partition.input_index, attribute)
        if plan is None or not partition.sets:
            return super().partition_contributions(partition, attribute, baseline)
        n_rows = self.step.inputs[partition.input_index].num_rows
        scores = plan.reduced_scores(_set_labels(partition.sets, n_rows), len(partition.sets))
        return [baseline - float(score) for score in scores]

    # ------------------------------------------------------------------- plans
    def _plan_for(self, input_index: int, attribute: str):
        """The (cached) incremental strategy for one (input, attribute) pair.

        ``None`` means no incremental strategy applies and the exact rerun
        backend must be used.
        """
        key = (input_index, attribute)
        if key not in self._plans:
            self._plans[key] = self._build_plan(input_index, attribute)
        return self._plans[key]

    def _build_plan(self, input_index: int, attribute: str):
        measure_type = type(self.measure)
        operation = self.step.operation

        if (measure_type is DiversityMeasure and isinstance(operation, GroupBy)
                and input_index == 0):
            specs = operation.decomposable_aggregates()
            if specs is None:
                return None
            if attribute not in self.step.output:
                # Schema is data-independent: the attribute stays absent from
                # every reduced output, so the measure always scores 0.
                return _ConstantScorePlan(0.0)
            if attribute not in specs:
                # Grouping-key columns materialise as object arrays, which the
                # diversity measure scores 0 regardless of the intervention.
                return _ConstantScorePlan(0.0)
            structure = self._groupby()
            if structure is None:
                return None
            agg, source = specs[attribute]
            return _GroupByAggregatePlan(self.step, attribute, structure, agg, source)

        sources = self._sources()
        if sources is None or input_index >= len(sources) or sources[input_index] is None:
            if (measure_type in (ExceptionalityMeasure, DiversityMeasure)
                    and isinstance(operation, Join) and operation.how == "left"
                    and input_index == 1):
                # The right side of a left join is not a slice of the output
                # (removals resurrect unmatched left rows), but the match
                # structure determines the reduced output exactly.
                structure = self._left_join()
                if structure is not None:
                    return _left_join_right_plan(self.step, attribute, structure,
                                                 measure_type is DiversityMeasure)
            return None
        if measure_type is ExceptionalityMeasure:
            return _SliceExceptionalityPlan(self.step, attribute, input_index,
                                            sources[input_index])
        if measure_type is DiversityMeasure:
            return _SliceDiversityPlan(self.step, attribute, input_index,
                                       sources[input_index])
        return None

    def _sources(self) -> Optional[List[Optional[np.ndarray]]]:
        if self._row_sources is _UNSET:
            self._row_sources = row_sources(self.step, self._context)
        return self._row_sources

    def _groupby(self) -> Optional["_GroupByStructure"]:
        if self._groupby_structure is _UNSET:
            if self._context is not None:
                self._groupby_structure = self._context.groupby_structure(
                    self.step, _GroupByStructure.build
                )
            else:
                self._groupby_structure = _GroupByStructure.build(self.step)
        return self._groupby_structure

    def _left_join(self) -> Optional["_LeftJoinStructure"]:
        if self._left_join_structure is _UNSET:
            hook = getattr(self._context, "left_join_structure", None)
            if hook is not None:
                self._left_join_structure = hook(self.step, _LeftJoinStructure.build)
            else:
                self._left_join_structure = _LeftJoinStructure.build(self.step)
        return self._left_join_structure


def row_sources(step, context=None) -> Optional[List[Optional[np.ndarray]]]:
    """Row-level provenance of a step's output (:meth:`Operation.row_mask`).

    Memoized by the session ``context`` when one is given (its
    ``row_sources`` hook), else computed from the operation.  Phase 3 and
    the phase-5 exceptionality charts both read provenance through here.
    """
    if context is None:
        return step.operation.row_mask(step.inputs)
    return context.row_sources(step, lambda step: step.operation.row_mask(step.inputs))


class _ConstantScorePlan:
    """A reduced score that no intervention can change."""

    def __init__(self, score: float) -> None:
        self._score = score

    def reduced_scores(self, labels: np.ndarray, n_sets: int) -> List[float]:
        return [self._score] * n_sets


def _set_labels(row_sets: Sequence[RowSet], n_rows: int) -> np.ndarray:
    """One label per input row: the position of the set removing it, else ``-1``.

    The sets of a partition are disjoint (checked when a
    :class:`~repro.core.partition.RowPartition` is built).  Indices outside
    the input are ignored; a row repeated within one set is removed once.
    """
    labels = np.full(n_rows, -1, dtype=np.int64)
    for position, row_set in enumerate(row_sets):
        indices = np.asarray(row_set.indices, dtype=np.int64)
        labels[indices[(indices >= 0) & (indices < n_rows)]] = position
    return labels


# --------------------------------------------------------------------- group-by
class _GroupByStructure:
    """Shared group assignment of the input rows of a group-by step.

    Every row of the (pre-filtered) input gets a dense group id; rows that
    the group-by skips — failing the pre-filter, or holding a missing value
    in a key column — get id ``-1``.  The ids are derived from the cached
    per-column factorisations, so the whole structure costs one pass over
    the key columns.
    """

    def __init__(self, row_gid: np.ndarray, n_groups: int, group_sizes: np.ndarray) -> None:
        self.row_gid = row_gid
        self.n_groups = n_groups
        self.group_sizes = group_sizes

    @classmethod
    def build(cls, step) -> Optional["_GroupByStructure"]:
        operation = step.operation
        frame = step.inputs[0]
        n_rows = frame.num_rows
        if any(key not in frame for key in operation.keys):
            return None
        if operation.pre_filter is not None:
            # The same mask GroupBy.apply's pre-filter computes.
            active = frame.predicate_mask(operation.pre_filter)
        else:
            active = np.ones(n_rows, dtype=bool)
        combined, any_null = composite_key_codes(frame, operation.keys)
        valid = active & ~any_null
        row_gid = np.full(n_rows, -1, dtype=np.int64)
        n_groups = 0
        if valid.any():
            _, inverse = np.unique(combined[valid], return_inverse=True)
            row_gid[valid] = inverse
            n_groups = int(inverse.max()) + 1
        group_sizes = np.bincount(row_gid[valid], minlength=n_groups)
        return cls(row_gid, n_groups, group_sizes)


class _GroupByAggregatePlan:
    """Reduced diversity of one aggregate column via per-group partials.

    ``sum``/``count``/``mean`` subtract each set's per-group partial count
    and sum from the precomputed totals, taken for every set of a partition
    from one (weighted) ``bincount`` over (label, group).  ``min``/``max``
    rescan each set's surviving values with one vectorised scatter,
    ``median`` reads the middle order statistics of each group off one
    shared group-major value sort (dropping rows keeps the per-group runs
    sorted), and ``std`` re-aggregates the groups a set removes rows from
    (see :meth:`_reduced_std`).  Groups whose rows are
    all removed vanish from the reduced output (as re-grouping would make
    them); surviving groups whose aggregated values are all missing yield
    NaN, which the coefficient of variation ignores — both matching the
    exact group-by.
    """

    def __init__(self, step, attribute: str, structure: _GroupByStructure, agg: str,
                 source_column: Optional[str]) -> None:
        self._structure = structure
        self._agg = agg
        self._grouped_rows = np.flatnonzero(structure.row_gid >= 0)
        self._grouped_gids = structure.row_gid[self._grouped_rows]
        # Score of the untouched step, exactly as the diversity measure
        # computes it on the materialised output.  Returned verbatim for
        # no-op interventions (sets disjoint from the grouped rows, e.g.
        # fully outside the pre-filter) so their contribution is exactly
        # 0.0 — the same float the exact rerun produces — rather than
        # subtraction noise that could leak past the positive-contribution
        # filter.
        self._full_score = coefficient_of_variation(
            step.output[attribute].values.astype(float)
        )
        if agg != "count":
            values = step.inputs[0][source_column].values.astype(float)
            usable = (structure.row_gid >= 0) & ~np.isnan(values)
            self._value_rows = np.flatnonzero(usable)
            self._value_gids = structure.row_gid[self._value_rows]
            self._values = values[self._value_rows]
            self._count_g = np.bincount(self._value_gids, minlength=structure.n_groups)
            self._sum_g = np.bincount(self._value_gids, weights=self._values,
                                      minlength=structure.n_groups)
        if agg == "median":
            # Group-major, value-ascending order of the usable rows: group
            # ``g`` occupies one contiguous sorted run, and any row removal
            # leaves every run sorted.
            order = np.lexsort((self._values, self._value_gids))
            self._median_rows = self._value_rows[order]
            self._median_gids = self._value_gids[order]
            self._median_values = self._values[order]
        elif agg == "std":
            # Group-major order of the usable rows, row order within a group:
            # group ``g``'s run is the array the exact group-by aggregates.
            order = np.argsort(self._value_gids, kind="stable")
            self._std_rows = self._value_rows[order]
            self._std_values = self._values[order]
            self._std_bounds = np.concatenate([[0], np.cumsum(self._count_g)])
            self._std_g = np.asarray(
                [_group_std(self._std_values[start:stop])
                 for start, stop in zip(self._std_bounds[:-1], self._std_bounds[1:])],
                dtype=float,
            )

    def reduced_scores(self, labels: np.ndarray, n_sets: int) -> List[float]:
        n_groups = self._structure.n_groups
        removed_sizes = set_value_counts(labels[self._grouped_rows], self._grouped_gids,
                                         n_groups, n_sets)
        partials = []
        if self._agg in ("sum", "mean"):
            # Per-set removed partials: counts, then sums.
            value_labels = labels[self._value_rows]
            partials = [set_value_counts(value_labels, self._value_gids, n_groups, n_sets,
                                         weights=weights)
                        for weights in (None, self._values)]
        return [self._reduced(labels, position, removed_sizes[position],
                              [rows[position] for rows in partials])
                for position in range(n_sets)]

    def _reduced(self, labels: np.ndarray, position: int, removed_sizes: np.ndarray,
                 partials: List[np.ndarray]) -> float:
        """Reduced diversity of the set labelled ``position``."""
        if not removed_sizes.any():
            # No grouped row is removed: the reduced output IS the output.
            return self._full_score
        reduced_sizes = self._structure.group_sizes - removed_sizes
        alive = reduced_sizes > 0

        if self._agg == "count":
            values = reduced_sizes[alive].astype(float)
            return coefficient_of_variation(values)

        removed = labels == position
        if self._agg == "median":
            return self._reduced_median(removed, alive)
        if self._agg == "std":
            return self._reduced_std(removed, removed_sizes > 0, alive)
        if self._agg in ("sum", "mean"):
            count_rem, sum_rem = partials
            counts = self._count_g - count_rem
            sums = self._sum_g - sum_rem
            with np.errstate(invalid="ignore", divide="ignore"):
                values = sums / counts if self._agg == "mean" else sums.astype(float)
            values = np.where(counts > 0, values, np.nan)
            return coefficient_of_variation(values[alive])

        # min / max: one scatter pass over the surviving values.  Empty groups
        # are detected by count, not by the scatter sentinel, so legitimate
        # +/-inf values survive as the exact rerun would produce them.
        kept = ~removed[self._value_rows]
        n_groups = self._structure.n_groups
        sentinel = np.inf if self._agg == "min" else -np.inf
        per_group = np.full(n_groups, sentinel, dtype=float)
        scatter = np.minimum.at if self._agg == "min" else np.maximum.at
        scatter(per_group, self._value_gids[kept], self._values[kept])
        kept_counts = np.bincount(self._value_gids[kept], minlength=n_groups)
        values = np.where(kept_counts > 0, per_group, np.nan)
        return coefficient_of_variation(values[alive])

    def _reduced_median(self, removed: np.ndarray, alive: np.ndarray) -> float:
        """Per-group medians of the surviving values via shared order statistics.

        ``self._median_values`` is group-major and value-ascending, so after
        masking out the removed rows group ``g`` holds the kept-value run
        ``[offset_g, offset_g + count_g)`` and its median is the mean of the
        (up to two) middle elements — the exact floats ``np.median`` produces
        on the re-grouped values.
        """
        n_groups = self._structure.n_groups
        kept = ~removed[self._median_rows]
        kept_values = self._median_values[kept]
        counts = np.bincount(self._median_gids[kept], minlength=n_groups)
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        top = max(kept_values.size - 1, 0)
        low = np.minimum(offsets + (counts - 1) // 2, top)
        high = np.minimum(offsets + counts // 2, top)
        if kept_values.size:
            medians = 0.5 * (kept_values[low] + kept_values[high])
        else:
            medians = np.zeros(n_groups)
        values = np.where(counts > 0, medians, np.nan)
        return coefficient_of_variation(values[alive])

    def _reduced_std(self, removed: np.ndarray, touched: np.ndarray,
                     alive: np.ndarray) -> float:
        """Per-group sample std: the full groups' values, re-aggregated where rows go.

        A surviving group that loses rows gets the group-by's own ``std`` of
        its remaining values, in row order — the array re-grouping would
        aggregate — so every per-group float is the exact rerun's.  Moment
        subtraction cannot promise that: ``np.std`` of a constant group is
        rounding noise rather than 0.0, and the scale-free coefficient of
        variation turns a noise-level difference into a different score.
        """
        values = self._std_g.copy()
        for group in np.flatnonzero(touched & alive):
            start, stop = self._std_bounds[group], self._std_bounds[group + 1]
            survivors = self._std_values[start:stop][~removed[self._std_rows[start:stop]]]
            values[group] = _group_std(survivors)
        return coefficient_of_variation(values[alive])


def _group_std(values: np.ndarray) -> float:
    """One group's ``std`` aggregate, NaN when it has no usable value (as in the group-by)."""
    return AGGREGATIONS["std"](values) if values.size else float("nan")


# ---------------------------------------------------------------------- slicing
def _output_labels(sources: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Output rows' labels: the label of the input row each derives from, else ``-1``."""
    output_labels = np.full(sources.size, -1, dtype=np.int64)
    derived = sources >= 0
    output_labels[derived] = labels[sources[derived]]
    return output_labels


class _SliceDiversityPlan:
    """Reduced diversity of an output column of a row-sliceable operation."""

    def __init__(self, step, attribute: str, input_index: int, sources: np.ndarray) -> None:
        self._sources = sources
        column = step.output[attribute] if attribute in step.output else None
        if column is None or not column.is_numeric:
            self._values = None
        else:
            self._values = column.values.astype(float)

    def reduced_scores(self, labels: np.ndarray, n_sets: int) -> List[float]:
        if self._values is None:
            return [0.0] * n_sets
        output_labels = _output_labels(self._sources, labels)
        return [coefficient_of_variation(self._values[output_labels != position])
                for position in range(n_sets)]


class _SliceExceptionalityPlan:
    """Reduced exceptionality (Eq. 1) of a row-sliceable operation's column.

    One :class:`_KSPair` per input dataframe containing the attribute; the
    reduced score is the maximum KS over the pairs (single input → plain
    Eq. 1, join → the input holding the attribute, union → the paper's max).
    """

    def __init__(self, step, attribute: str, input_index: int,
                 sources: np.ndarray) -> None:
        self._sources = sources
        self._pairs: List[_KSPair] = []
        if attribute in step.output:
            output_column = step.output[attribute]
            for position, frame in enumerate(step.inputs):
                if attribute in frame:
                    self._pairs.append(_KSPair(
                        frame[attribute], output_column,
                        before_is_reduced=(position == input_index),
                    ))

    def reduced_scores(self, labels: np.ndarray, n_sets: int) -> np.ndarray:
        """Reduced exceptionality of every labelled set."""
        if not self._pairs:
            return np.zeros(n_sets)
        output_labels = _output_labels(self._sources, labels)
        scores = self._pairs[0].reduced_ks(labels, output_labels, n_sets)
        for pair in self._pairs[1:]:
            scores = np.maximum(scores, pair.reduced_ks(labels, output_labels, n_sets))
        return scores


class _KSPair:
    """KS distance between a (possibly reduced) input column and the sliced output.

    Three regimes, mirroring :func:`repro.stats.ks.ks_columns`:

    * numeric vs numeric — both columns' non-NaN values placed once on one
      sorted support (read off their cached argsorts); every set's KS
      follows from removed counts (:func:`ks_removed_counts_batch`);
    * categorical vs categorical — cached factorisation codes, reduced value
      counts by subtraction, KS over the shared (full) support;
    * mixed — reduced :class:`Column` views fed to :func:`ks_columns`, one
      set at a time.
    """

    def __init__(self, before: Column, after: Column, before_is_reduced: bool) -> None:
        self._before = before
        self._after = after
        self._before_is_reduced = before_is_reduced
        numeric_before = before.is_numeric or before.is_boolean
        numeric_after = after.is_numeric or after.is_boolean
        if numeric_before and numeric_after:
            self._mode = "numeric"
            self._before_rows, values_before = _sorted_non_nan(before)
            self._after_rows, values_after = _sorted_non_nan(after)
            support = _sorted_union(values_before, values_after)
            self._support_size = support.size
            self._codes_before = np.searchsorted(support, values_before)
            self._codes_after = np.searchsorted(support, values_after)
        elif before.is_categorical and after.is_categorical:
            self._mode = "categorical"
            codes_b, uniques_b = before.factorize()
            codes_o, uniques_o = after.factorize()
            self._codes_before, self._codes_after = codes_b, codes_o
            self._counts_before = np.bincount(codes_b[codes_b >= 0],
                                              minlength=len(uniques_b)).astype(float)
            self._counts_after = np.bincount(codes_o[codes_o >= 0],
                                             minlength=len(uniques_o)).astype(float)
            support = np.union1d(np.asarray(uniques_b, dtype=str),
                                 np.asarray(uniques_o, dtype=str))
            self._support_size = support.size
            self._positions_before = np.searchsorted(support, np.asarray(uniques_b, dtype=str))
            self._positions_after = np.searchsorted(support, np.asarray(uniques_o, dtype=str))
        else:
            self._mode = "mixed"

    def reduced_ks(self, labels: np.ndarray, output_labels: np.ndarray,
                   n_sets: int) -> np.ndarray:
        """KS of every labelled set: input rows labelled ``s`` removed, and
        the output rows labelled ``s`` with them."""
        if self._mode == "numeric":
            labels_before = labels[self._before_rows] if self._before_is_reduced else None
            return ks_removed_counts_batch(
                self._codes_before, labels_before,
                self._codes_after, output_labels[self._after_rows],
                self._support_size, n_sets,
            )
        if self._mode == "categorical":
            size_before = self._counts_before.size
            if self._before_is_reduced:
                counts_before = self._counts_before[None, :] - set_value_counts(
                    labels, self._codes_before, size_before, n_sets)
            else:
                counts_before = np.broadcast_to(self._counts_before, (n_sets, size_before))
            counts_after = self._counts_after[None, :] - set_value_counts(
                output_labels, self._codes_after, self._counts_after.size, n_sets)
            return ks_from_value_counts_batch(
                counts_before, self._positions_before,
                counts_after, self._positions_after, self._support_size,
            )
        return np.asarray([self._reduced_ks_mixed(labels == position,
                                                  output_labels != position)
                           for position in range(n_sets)])

    def _reduced_ks_mixed(self, removed: np.ndarray, keep_output: np.ndarray) -> float:
        before = self._before
        if self._before_is_reduced:
            before = Column._from_trusted(before.name, before.values[~removed], before.kind)
        after = Column._from_trusted(
            self._after.name, self._after.values[keep_output], self._after.kind
        )
        return ks_columns(before, after)


def _sorted_non_nan(column: Column) -> Tuple[np.ndarray, np.ndarray]:
    """Source rows and float values of a column's non-NaN values, sorted.

    Uses the column's cached argsort; NaNs sort last, so the non-NaN prefix
    is a slice.
    """
    order = column.sorted_order()
    values = column.values.astype(float)[order]
    n_clean = int((~np.isnan(values)).sum())
    return order[:n_clean], values[:n_clean]


def _sorted_union(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Distinct values of two sorted arrays, merged in order without a sort."""
    merged = np.empty(first.size + second.size)
    merged[np.arange(first.size) + np.searchsorted(second, first, side="left")] = first
    merged[np.arange(second.size) + np.searchsorted(first, second, side="right")] = second
    distinct = np.ones(merged.size, dtype=bool)
    distinct[1:] = merged[1:] != merged[:-1]
    return merged[distinct]


# -------------------------------------------------------------------- left join
class _LeftJoinStructure:
    """Match structure of a left join, shared by all right-side interventions.

    ``left_idx`` / ``right_idx`` are the input rows of every matched output
    pair (in output order), ``unmatched_left`` the sorted left rows the join
    appends after the pairs, and ``match_counts`` how many pairs each left
    row participates in — enough to derive, for any removal of right rows,
    exactly which pairs survive and which left rows resurface as unmatched.
    """

    def __init__(self, left_idx: np.ndarray, right_idx: np.ndarray,
                 unmatched_left: np.ndarray, n_left: int) -> None:
        self.left_idx = left_idx
        self.right_idx = right_idx
        self.unmatched_left = unmatched_left
        self.n_left = n_left
        self.match_counts = np.bincount(left_idx, minlength=n_left)

    @classmethod
    def build(cls, step) -> Optional["_LeftJoinStructure"]:
        operation = step.operation
        if any(key not in frame for frame in step.inputs for key in operation.on):
            return None
        left_idx, right_idx, unmatched_left = operation.match_rows(step.inputs)
        return cls(left_idx, right_idx, unmatched_left, step.inputs[0].num_rows)


def _left_join_right_plan(step, attribute: str, structure: _LeftJoinStructure,
                          diversity: bool) -> Optional["_LeftJoinRightPlan"]:
    """Build the right-side plan, or ``None`` when the attribute's source
    column in the output cannot be resolved (fall back to exact rerun)."""
    plan = _LeftJoinRightPlan(step, attribute, structure, diversity)
    return plan if plan.supported else None


class _LeftJoinRightPlan:
    """Reduced score of a left-join step under right-side row removals.

    Removing a set of right rows removes their matched pairs from the
    output and *resurrects* every left row whose matches are all gone as an
    unmatched row (left values, null right values) — so the reduced output
    is not a slice of the materialised output, but it is fully determined
    by the match structure:

    * surviving pairs — mask the pair arrays with ``~removed[right_idx]``
      (subsequence order equals the rerun's pair order, because removing
      rows preserves the stable sort order of the survivors);
    * unmatched tail — the original unmatched left rows merged (sorted)
      with the newly resurfaced ones, exactly as the rerun would emit them.

    The reduced output column for the scored attribute is assembled from
    these pieces with the same concatenation the join materialisation uses
    (bit-identical values, same order), then scored with the same measure
    primitives — KS against the untouched left column and/or the reduced
    right column for exceptionality, coefficient of variation for
    diversity.
    """

    def __init__(self, step, attribute: str, structure: _LeftJoinStructure,
                 diversity: bool) -> None:
        left, right = step.inputs[0], step.inputs[1]
        operation = step.operation
        self._attribute = attribute
        self._structure = structure
        self._diversity = diversity
        self.supported = True
        self._out_kind = None
        self._pair_values: Optional[np.ndarray] = None
        self._left_tail_values: Optional[np.ndarray] = None
        self._filler_numeric = False
        self._before_left: Optional[Column] = None
        self._before_right: Optional[Column] = None

        if attribute in step.output:
            # Which input column materialises this output column, mirroring
            # the join's collision-suffix naming.
            keys = list(operation.on)
            collisions = (set(left.column_names) & set(right.column_names)) - set(keys)
            source = None
            for name in left.column_names:
                out_name = name + "_left" if name in collisions else name
                if out_name == attribute:
                    source = ("left", name)
                    break
            if source is None:
                for name in right.column_names:
                    if name in keys:
                        continue
                    out_name = name + "_right" if name in collisions else name
                    if out_name == attribute:
                        source = ("right", name)
                        break
            if source is None:
                self.supported = False
                return
            side, src_name = source
            self._out_kind = step.output[attribute].kind
            if side == "left":
                src = left[src_name]
                self._pair_values = src.values[structure.left_idx]
                self._left_tail_values = src.values
            else:
                src = right[src_name]
                self._pair_values = src.values[structure.right_idx]
                self._filler_numeric = src.is_numeric

        if not diversity:
            # The exceptionality measure compares the reduced output against
            # every *input* column named like the attribute: the untouched
            # left column, and/or the right column minus the removed rows.
            if attribute in left:
                self._before_left = left[attribute]
            if attribute in right:
                self._before_right = right[attribute]

    # ------------------------------------------------------------------ scoring
    def reduced_scores(self, labels: np.ndarray, n_sets: int) -> List[float]:
        return [self._reduced(labels == position) for position in range(n_sets)]

    def _reduced(self, removed: np.ndarray) -> float:
        """Reduced score with the right rows marked in ``removed`` gone."""
        structure = self._structure
        keep_pairs = ~removed[structure.right_idx]
        surviving = np.bincount(structure.left_idx[keep_pairs],
                                minlength=structure.n_left)
        newly_unmatched = np.flatnonzero(
            (structure.match_counts > 0) & (surviving == 0)
        )
        if newly_unmatched.size:
            unmatched = np.sort(np.concatenate([structure.unmatched_left,
                                                newly_unmatched]))
        else:
            unmatched = structure.unmatched_left

        if self._diversity:
            if self._out_kind != "numeric":
                # Absent or non-numeric output column: diversity scores 0
                # regardless of the intervention, as the measure would.
                return 0.0
            values = self._reduced_output_values(keep_pairs, unmatched)
            return coefficient_of_variation(values.astype(float))

        if self._pair_values is None:
            return 0.0  # attribute absent from the (schema-stable) output
        after = Column._from_trusted(
            self._attribute, self._reduced_output_values(keep_pairs, unmatched),
            self._out_kind,
        )
        scores = []
        if self._before_left is not None:
            scores.append(ks_columns(self._before_left, after))
        if self._before_right is not None:
            before = Column._from_trusted(
                self._attribute, self._before_right.values[~removed],
                self._before_right.kind,
            )
            scores.append(ks_columns(before, after))
        return max(scores) if scores else 0.0

    def _reduced_output_values(self, keep_pairs: np.ndarray,
                               unmatched: np.ndarray) -> np.ndarray:
        """The reduced output column's values, in the rerun's exact order."""
        pair_values = self._pair_values[keep_pairs]
        if unmatched.size == 0:
            # The materialisation concatenates the unmatched tail only when
            # it is non-empty; mirroring that keeps dtype promotion (e.g.
            # int64 pairs + NaN filler -> float64) identical.
            return pair_values
        if self._left_tail_values is not None:
            tail = self._left_tail_values[unmatched]
        elif self._filler_numeric:
            tail = np.full(unmatched.size, np.nan, dtype=float)
        else:
            tail = np.asarray([None] * unmatched.size, dtype=object)
        return np.concatenate([pair_values, tail])
