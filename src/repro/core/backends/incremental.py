"""The batched, structure-exploiting intervention backend.

Instead of re-running the operation per set-of-rows (the
:class:`~repro.core.backends.exact.ExactRerunBackend` semantics), this
backend derives every reduced interestingness score from structure that is
precomputed **once per (step, attribute)** and shared across all
interventions:

* **Group-by with decomposable aggregates** (sum / count / mean / min /
  max / median / std): one pass over the input assigns every row a group
  id; per-group counts and sums are precomputed, and each intervention's
  reduced aggregates follow by subtracting the removed rows' per-group
  partials (min/max use a per-group scatter over the surviving rows,
  median reads order statistics off one shared group-major sort, std
  subtracts centered first/second moments) — no re-grouping, no per-group
  python loop.
* **Filter / inner join / union / project**: the operation's row-level
  provenance (:meth:`~repro.operators.operations.Operation.row_mask`) is
  computed once; every intervention's reduced output is a boolean slice of
  the already-materialised output — the operation is never re-run.
* **KS re-scoring**: the exceptionality measure needs the reduced input and
  output columns *sorted*; both argsorts are computed once (and cached on
  the :class:`~repro.dataframe.column.Column`), and each intervention's
  sorted values are obtained by masking the sorted order — dropping rows
  from a sorted array leaves it sorted.  Categorical columns go through
  cached factorisation codes and count subtraction instead.

* **KS re-scoring, batched**: a whole partition's row sets are re-scored
  in one vectorised 2-D pass (:func:`repro.stats.ks.ks_sorted_masked_batch`)
  instead of one 1-D pass per set.

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
from ...dataframe.groupby import composite_key_codes
from ...operators.operations import GroupBy, Join
from ...stats.dispersion import coefficient_of_variation
from ...stats.ks import (
    ks_columns,
    ks_from_value_counts,
    ks_from_value_counts_batch,
    ks_sorted_masked_batch,
    ks_two_sample_sorted,
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
        return plan.reduced_score(row_set)

    def partition_contributions(self, partition, attribute: str,
                                baseline: float) -> List[float]:
        """Raw contributions of a whole partition, batched when possible.

        Plans exposing ``reduced_scores_batch`` (the KS-based exceptionality
        plan) re-score every set-of-rows of the partition in one vectorised
        2-D pass instead of one 1-D pass per set; other plans and the exact
        fallback keep the per-set walk of the base class.
        """
        plan = self._plan_for(partition.input_index, attribute)
        batch = getattr(plan, "reduced_scores_batch", None)
        if batch is not None and partition.sets:
            scores = batch(partition.sets)
            return [baseline - float(score) for score in scores]
        return super().partition_contributions(partition, attribute, baseline)

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
            if self._context is not None:
                self._row_sources = self._context.row_sources(
                    self.step, lambda step: step.operation.row_mask(step.inputs)
                )
            else:
                self._row_sources = self.step.operation.row_mask(self.step.inputs)
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


class _ConstantScorePlan:
    """A reduced score that no intervention can change."""

    def __init__(self, score: float) -> None:
        self._score = score

    def reduced_score(self, row_set: RowSet) -> float:
        return self._score


def _removal_mask(row_set: RowSet, n_rows: int) -> np.ndarray:
    """Boolean mask over the intervened input marking the removed rows."""
    removed = np.zeros(n_rows, dtype=bool)
    indices = np.asarray(row_set.indices, dtype=np.int64)
    if indices.size:
        indices = indices[(indices >= 0) & (indices < n_rows)]
        removed[indices] = True
    return removed


def _removal_matrix(row_sets: Sequence[RowSet], n_rows: int) -> np.ndarray:
    """Stacked removal masks — row ``i`` marks the rows removed by set ``i``."""
    removed = np.zeros((len(row_sets), n_rows), dtype=bool)
    for position, row_set in enumerate(row_sets):
        indices = np.asarray(row_set.indices, dtype=np.int64)
        if indices.size:
            indices = indices[(indices >= 0) & (indices < n_rows)]
            removed[position, indices] = True
    return removed


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

    ``sum``/``count``/``mean`` subtract the removed rows' per-group partial
    count and sum from the precomputed totals; ``min``/``max`` rescan the
    surviving values with one vectorised scatter; ``median`` reads the
    middle order statistics of each group off one shared group-major value
    sort (dropping rows keeps the per-group runs sorted); ``std`` subtracts
    partial first and second moments of the values *centered on the full
    per-group means* (centering keeps the moment subtraction numerically
    stable where raw sums-of-squares would cancel catastrophically).  Groups
    whose rows are all removed vanish from the reduced output (as
    re-grouping would make them); surviving groups whose aggregated values
    are all missing yield NaN, which the coefficient of variation ignores —
    both matching the exact group-by.
    """

    def __init__(self, step, attribute: str, structure: _GroupByStructure, agg: str,
                 source_column: Optional[str]) -> None:
        self._structure = structure
        self._agg = agg
        self._n_rows = step.inputs[0].num_rows
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
            with np.errstate(invalid="ignore", divide="ignore"):
                means = self._sum_g / self._count_g
            means = np.where(self._count_g > 0, means, 0.0)
            self._centered = self._values - means[self._value_gids]
            self._centered_sq = self._centered * self._centered
            self._csum_g = np.bincount(self._value_gids, weights=self._centered,
                                       minlength=structure.n_groups)
            self._csumsq_g = np.bincount(self._value_gids, weights=self._centered_sq,
                                         minlength=structure.n_groups)

    def reduced_score(self, row_set: RowSet) -> float:
        structure = self._structure
        removed = _removal_mask(row_set, self._n_rows)
        removed_gids = structure.row_gid[removed & (structure.row_gid >= 0)]
        if removed_gids.size == 0:
            # No grouped row is removed: the reduced output IS the output.
            return self._full_score
        removed_sizes = np.bincount(removed_gids, minlength=structure.n_groups)
        reduced_sizes = structure.group_sizes - removed_sizes
        alive = reduced_sizes > 0

        if self._agg == "count":
            values = reduced_sizes[alive].astype(float)
            return coefficient_of_variation(values)

        if self._agg == "median":
            return self._reduced_median(removed, alive)

        removed_values = removed[self._value_rows]
        if self._agg == "std":
            return self._reduced_std(removed_values, alive)
        if self._agg in ("sum", "mean"):
            count_rem = np.bincount(self._value_gids[removed_values],
                                    minlength=structure.n_groups)
            sum_rem = np.bincount(self._value_gids[removed_values],
                                  weights=self._values[removed_values],
                                  minlength=structure.n_groups)
            counts = self._count_g - count_rem
            sums = self._sum_g - sum_rem
            with np.errstate(invalid="ignore", divide="ignore"):
                values = sums / counts if self._agg == "mean" else sums.astype(float)
            values = np.where(counts > 0, values, np.nan)
            return coefficient_of_variation(values[alive])

        # min / max: one scatter pass over the surviving values.  Empty groups
        # are detected by count, not by the scatter sentinel, so legitimate
        # +/-inf values survive as the exact rerun would produce them.
        kept = ~removed_values
        sentinel = np.inf if self._agg == "min" else -np.inf
        per_group = np.full(structure.n_groups, sentinel, dtype=float)
        scatter = np.minimum.at if self._agg == "min" else np.maximum.at
        scatter(per_group, self._value_gids[kept], self._values[kept])
        kept_counts = np.bincount(self._value_gids[kept], minlength=structure.n_groups)
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

    def _reduced_std(self, removed_values: np.ndarray, alive: np.ndarray) -> float:
        """Per-group sample std via subtraction of centered moment partials.

        With values centered on the full per-group mean, the surviving sum of
        squared deviations about the *surviving* mean is ``S2 − S1²/n`` (the
        shift identity), so no rescan is needed.  Tiny negative residues from
        float cancellation are clipped to zero before the square root.
        """
        n_groups = self._structure.n_groups
        count_rem = np.bincount(self._value_gids[removed_values], minlength=n_groups)
        csum_rem = np.bincount(self._value_gids[removed_values],
                               weights=self._centered[removed_values], minlength=n_groups)
        csumsq_rem = np.bincount(self._value_gids[removed_values],
                                 weights=self._centered_sq[removed_values],
                                 minlength=n_groups)
        counts = self._count_g - count_rem
        s1 = self._csum_g - csum_rem
        s2 = self._csumsq_g - csumsq_rem
        with np.errstate(invalid="ignore", divide="ignore"):
            variance = (s2 - s1 * s1 / counts) / (counts - 1)
        deviations = np.sqrt(np.maximum(variance, 0.0))
        # Matching the exact group-by: one usable value -> std 0.0, no usable
        # value (but surviving rows) -> NaN.
        values = np.where(counts > 1, deviations, np.where(counts == 1, 0.0, np.nan))
        return coefficient_of_variation(values[alive])


# ---------------------------------------------------------------------- slicing
def _keep_output_rows(sources: np.ndarray, removed: np.ndarray) -> np.ndarray:
    """Output rows that survive removing ``removed`` rows of the intervened input."""
    keep = np.ones(sources.size, dtype=bool)
    derived = sources >= 0
    keep[derived] = ~removed[sources[derived]]
    return keep


def _keep_output_rows_batch(sources: np.ndarray, removed: np.ndarray) -> np.ndarray:
    """Batched :func:`_keep_output_rows`: one surviving-output mask per removal row."""
    keep = np.ones((removed.shape[0], sources.size), dtype=bool)
    derived = sources >= 0
    keep[:, derived] = ~removed[:, sources[derived]]
    return keep


class _SliceDiversityPlan:
    """Reduced diversity of an output column of a row-sliceable operation."""

    def __init__(self, step, attribute: str, input_index: int, sources: np.ndarray) -> None:
        self._n_rows = step.inputs[input_index].num_rows
        self._sources = sources
        column = step.output[attribute] if attribute in step.output else None
        if column is None or not column.is_numeric:
            self._values = None
        else:
            self._values = column.values.astype(float)

    def reduced_score(self, row_set: RowSet) -> float:
        if self._values is None:
            return 0.0
        removed = _removal_mask(row_set, self._n_rows)
        keep = _keep_output_rows(self._sources, removed)
        return coefficient_of_variation(self._values[keep])


class _SliceExceptionalityPlan:
    """Reduced exceptionality (Eq. 1) of a row-sliceable operation's column.

    One :class:`_KSPair` per input dataframe containing the attribute; the
    reduced score is the maximum KS over the pairs (single input → plain
    Eq. 1, join → the input holding the attribute, union → the paper's max).
    """

    def __init__(self, step, attribute: str, input_index: int,
                 sources: np.ndarray) -> None:
        self._n_rows = step.inputs[input_index].num_rows
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

    def reduced_score(self, row_set: RowSet) -> float:
        if not self._pairs:
            return 0.0
        removed = _removal_mask(row_set, self._n_rows)
        keep = _keep_output_rows(self._sources, removed)
        return max(pair.reduced_ks(removed, keep) for pair in self._pairs)

    def reduced_scores_batch(self, row_sets: Sequence[RowSet]) -> np.ndarray:
        """Reduced exceptionality of every set-of-rows in one 2-D KS pass."""
        if not self._pairs:
            return np.zeros(len(row_sets))
        removed = _removal_matrix(row_sets, self._n_rows)
        keep = _keep_output_rows_batch(self._sources, removed)
        scores = self._pairs[0].reduced_ks_batch(removed, keep)
        for pair in self._pairs[1:]:
            scores = np.maximum(scores, pair.reduced_ks_batch(removed, keep))
        return scores


class _KSPair:
    """KS distance between a (possibly reduced) input column and the sliced output.

    Three regimes, mirroring :func:`repro.stats.ks.ks_columns`:

    * numeric vs numeric — both argsorts cached, per-intervention sorted
      values obtained by masking the sorted order;
    * categorical vs categorical — cached factorisation codes, reduced value
      counts by subtraction, KS over the shared (full) support;
    * mixed — reduced :class:`Column` views fed to :func:`ks_columns`.
    """

    def __init__(self, before: Column, after: Column, before_is_reduced: bool) -> None:
        self._before = before
        self._after = after
        self._before_is_reduced = before_is_reduced
        numeric_before = before.is_numeric or before.is_boolean
        numeric_after = after.is_numeric or after.is_boolean
        if numeric_before and numeric_after:
            self._mode = "numeric"
            self._sorted_before, self._before_rows = _sorted_clean(before)
            self._sorted_after, self._after_rows = _sorted_clean(after)
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

    def reduced_ks(self, removed: np.ndarray, keep_output: np.ndarray) -> float:
        if self._mode == "numeric":
            before = self._sorted_before
            if self._before_is_reduced:
                before = before[~removed[self._before_rows]]
            after = self._sorted_after[keep_output[self._after_rows]]
            return ks_two_sample_sorted(before, after)
        if self._mode == "categorical":
            counts_before = self._counts_before
            if self._before_is_reduced:
                removed_codes = self._codes_before[removed & (self._codes_before >= 0)]
                counts_before = counts_before - np.bincount(
                    removed_codes, minlength=counts_before.size
                )
            dropped_codes = self._codes_after[~keep_output & (self._codes_after >= 0)]
            counts_after = self._counts_after - np.bincount(
                dropped_codes, minlength=self._counts_after.size
            )
            return ks_from_value_counts(
                counts_before, self._positions_before,
                counts_after, self._positions_after, self._support_size,
            )
        before = self._before
        if self._before_is_reduced:
            before = Column._from_trusted(before.name, before.values[~removed], before.kind)
        after = Column._from_trusted(
            self._after.name, self._after.values[keep_output], self._after.kind
        )
        return ks_columns(before, after)

    def reduced_ks_batch(self, removed: np.ndarray, keep_output: np.ndarray) -> np.ndarray:
        """Batched :meth:`reduced_ks` over stacked removal / keep masks.

        The numeric and categorical regimes run as single vectorised 2-D
        passes (:func:`ks_sorted_masked_batch` /
        :func:`ks_from_value_counts_batch`) and reproduce the per-set path
        bit-for-bit: the per-set counts are the same integers and the
        divisions/cumsums apply the same float operations row-wise.  The
        mixed regime has no batched form and walks the sets.
        """
        n_sets = removed.shape[0]
        if self._mode == "numeric":
            keep_before = None
            if self._before_is_reduced:
                keep_before = ~removed[:, self._before_rows]
            keep_after = keep_output[:, self._after_rows]
            return ks_sorted_masked_batch(self._sorted_before, keep_before,
                                          self._sorted_after, keep_after)
        if self._mode == "categorical":
            if self._before_is_reduced:
                counts_before = self._counts_before[None, :] - _scatter_counts(
                    removed, self._codes_before, self._counts_before.size
                )
            else:
                counts_before = np.broadcast_to(
                    self._counts_before, (n_sets, self._counts_before.size)
                )
            counts_after = self._counts_after[None, :] - _scatter_counts(
                ~keep_output, self._codes_after, self._counts_after.size
            )
            return ks_from_value_counts_batch(
                counts_before, self._positions_before,
                counts_after, self._positions_after, self._support_size,
            )
        return np.asarray([
            self.reduced_ks(removed[position], keep_output[position])
            for position in range(n_sets)
        ])


def _scatter_counts(selected: np.ndarray, codes: np.ndarray, size: int) -> np.ndarray:
    """Per-set value counts of the selected rows of a factorised column.

    ``selected`` is an ``(n_sets, n_rows)`` boolean matrix; rows with code
    ``< 0`` (missing values) never count.  One flat ``bincount`` over
    ``set * size + code`` replaces a per-set bincount loop.
    """
    n_sets = selected.shape[0]
    valid = codes >= 0
    valid_codes = codes[valid]
    set_index, position_index = np.nonzero(selected[:, valid])
    flat = set_index * size + valid_codes[position_index]
    return np.bincount(flat, minlength=n_sets * size).reshape(n_sets, size).astype(float)


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
        self._n_right = right.num_rows
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
    def reduced_score(self, row_set: RowSet) -> float:
        structure = self._structure
        removed = _removal_mask(row_set, self._n_right)
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


def _sorted_clean(column: Column) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted non-NaN float values of a column plus their source row indices.

    Uses the column's cached argsort; NaNs sort last, so the clean prefix is
    a slice.  The row-index array lets callers translate a row-level keep
    mask into a mask over the sorted values.
    """
    order = column.sorted_order()
    values = column.values.astype(float)[order]
    n_clean = int((~np.isnan(values)).sum())
    return values[:n_clean], order[:n_clean]


