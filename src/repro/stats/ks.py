"""Two-sample Kolmogorov–Smirnov statistic.

The paper's exceptionality measure (Eq. 1) is ``KS(Pr(d_in[A]), Pr(d_out[A]))``
— the two-sample KS statistic between the value distributions of a column
before and after the EDA operation.  We implement two flavours:

* :func:`ks_from_distributions` — KS distance between two already-computed
  discrete :class:`~repro.stats.distributions.ValueDistribution` objects
  (this is the form the paper uses: distributions are over relative value
  frequencies, and both numeric and categorical columns are supported by
  ordering the shared value domain).
* :func:`ks_two_sample` — the classic two-sample KS statistic on raw numeric
  samples, provided for completeness and cross-checked against SciPy in the
  test suite.

:func:`ks_removed_counts_batch` re-scores every intervention of a partition
from value counts, the floats :func:`ks_two_sample_sorted` gives on each
set's kept values.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..dataframe.column import Column
from .distributions import ValueDistribution, aligned_cdfs


def ks_from_distributions(first: ValueDistribution, second: ValueDistribution) -> float:
    """KS distance (sup of |CDF1 - CDF2|) between two discrete distributions.

    Returns 0 when either distribution is empty: an empty output column tells
    us nothing about the deviation, and a 0 interestingness score makes FEDEX
    ignore that column, which matches the intended behaviour.
    """
    if not first or not second:
        return 0.0
    cdf_first, cdf_second = aligned_cdfs(first, second)
    if cdf_first.size == 0:
        return 0.0
    return float(np.max(np.abs(cdf_first - cdf_second)))


def ks_two_sample(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Classic two-sample KS statistic on raw numeric samples.

    Both samples are treated as empirical distributions; the statistic is the
    supremum over the pooled sample points of the absolute difference between
    the two empirical CDFs.
    """
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    a = a[~np.isnan(a)]
    b = b[~np.isnan(b)]
    return ks_two_sample_sorted(a, b)


def ks_two_sample_sorted(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Two-sample KS statistic for already-sorted, NaN-free float arrays.

    Numerically identical to :func:`ks_two_sample` minus the ``O(n log n)``
    sort and NaN scrub.  :func:`ks_removed_counts_batch` reproduces it
    bit-for-bit on every intervention of a partition at once.
    """
    if sample_a.size == 0 or sample_b.size == 0:
        return 0.0
    pooled = np.concatenate([sample_a, sample_b])
    cdf_a = np.searchsorted(sample_a, pooled, side="right") / sample_a.size
    cdf_b = np.searchsorted(sample_b, pooled, side="right") / sample_b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


#: Default working-set budget of the batched 2-D KS passes (128 MiB).  At
#: paper-full scale the ``n_sets × n_values`` matrices of one partition can
#: otherwise grow without bound; sets are processed in chunks that fit.
DEFAULT_KS_BUDGET_BYTES = 128 * 1024 * 1024


def _batch_chunk_size(n_sets: int, words_per_set: int,
                      budget_bytes: Optional[int]) -> int:
    """How many sets fit in one chunk of the batched pass.

    ``words_per_set`` counts the float64 elements each set contributes to
    the pass's transient matrices; the chunk is sized so the chunk's
    working set stays within ``budget_bytes`` (``None`` → the module
    default).  Always at least 1 — a single set is the irreducible unit.
    """
    budget = DEFAULT_KS_BUDGET_BYTES if budget_bytes is None else int(budget_bytes)
    per_set = max(words_per_set, 1) * 8
    return max(1, min(n_sets, budget // per_set))


def set_value_counts(labels: np.ndarray, codes: np.ndarray, size: int, n_sets: int,
                     weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-set bincounts of a factorised sample, from one label per value.

    Row ``s`` counts, per code in ``[0, size)``, the values labelled ``s``
    (or sums their ``weights``, in value order as a per-set ``bincount``
    would).  Labels outside ``[0, n_sets)`` and negative (missing) codes
    never count.
    """
    selected = (labels >= 0) & (labels < n_sets) & (codes >= 0)
    flat = labels[selected] * size + codes[selected]
    if weights is not None:
        weights = weights[selected]
    counts = np.bincount(flat, weights=weights, minlength=n_sets * size)
    return counts.reshape(n_sets, size)


def ks_removed_counts_batch(codes_a: np.ndarray, labels_a: Optional[np.ndarray],
                            codes_b: np.ndarray, labels_b: Optional[np.ndarray],
                            support_size: int, n_sets: int,
                            budget_bytes: Optional[int] = None) -> np.ndarray:
    """KS statistics of two samples after each of ``n_sets`` disjoint removals.

    ``codes_*`` place each sample's non-NaN values on one sorted support of
    ``support_size`` values; ``labels_*`` name, per value, the set whose
    removal drops it (``-1``: none; ``None``: no set drops a value of that
    side, and at least one side must be labelled).  Returns, per set, the
    float :func:`ks_two_sample_sorted` gives on the kept values: at each
    support value the kept count ``<= x`` is an integer over the kept
    total, and the support holds every point of every set's pooled sample.
    An empty side scores 0.  Sets are chunked to fit ``budget_bytes``
    (default :data:`DEFAULT_KS_BUDGET_BYTES`); chunking changes no bit.
    """
    if labels_a is None and labels_b is None:
        raise ValueError(
            "at least one of labels_a/labels_b must be given "
            "(use ks_two_sample_sorted for a single full-sample statistic)"
        )
    if support_size == 0:
        return np.zeros(n_sets)
    full_a = np.cumsum(np.bincount(codes_a, minlength=support_size))
    full_b = np.cumsum(np.bincount(codes_b, minlength=support_size))
    # Transient words per set: two count rows per labelled side (removed
    # and kept), plus the CDF difference and its operand.
    words_per_set = 2 * support_size * (1 + (labels_a is not None) + (labels_b is not None))
    chunk = _batch_chunk_size(n_sets, words_per_set, budget_bytes)
    statistics = np.empty(n_sets)
    for start in range(0, n_sets, chunk):
        stop = min(start + chunk, n_sets)
        counts_a = _kept_counts(full_a, codes_a, labels_a, start, stop)
        counts_b = _kept_counts(full_b, codes_b, labels_b, start, stop)
        totals_a, totals_b = counts_a[:, -1], counts_b[:, -1]
        safe_a = np.where(totals_a > 0, totals_a, 1).astype(float)
        safe_b = np.where(totals_b > 0, totals_b, 1).astype(float)
        diff = counts_a / safe_a[:, None]
        diff -= counts_b / safe_b[:, None]
        np.abs(diff, out=diff)
        valid = (totals_a > 0) & (totals_b > 0)
        statistics[start:stop] = np.where(valid, diff.max(axis=1), 0.0)
    return statistics


def _kept_counts(full: np.ndarray, codes: np.ndarray, labels: Optional[np.ndarray],
                 start: int, stop: int) -> np.ndarray:
    """Cumulative kept counts at every support value for sets ``start..stop-1``."""
    if labels is None:
        return np.broadcast_to(full, (stop - start, full.size))
    removed = set_value_counts(labels - start, codes, full.size, stop - start)
    np.cumsum(removed, axis=1, out=removed)
    return full - removed


def ks_from_value_counts_batch(counts_before: np.ndarray, positions_before: np.ndarray,
                               counts_after: np.ndarray, positions_after: np.ndarray,
                               support_size: int,
                               budget_bytes: Optional[int] = None) -> np.ndarray:
    """Batched :func:`ks_from_value_counts`: one statistic per row of counts.

    ``counts_before`` / ``counts_after`` are ``(n_sets, n_uniques)`` matrices
    of per-set value counts; the positions scatter each count column onto the
    shared sorted support exactly as in the serial function.  Rows with zero
    total mass on either side score 0.

    Like :func:`ks_removed_counts_batch`, the sets are processed in chunks
    when the per-set PMF matrices would exceed ``budget_bytes`` (default
    :data:`DEFAULT_KS_BUDGET_BYTES`); rows are independent, so chunking is
    bit-identical to the single pass.
    """
    n_sets = counts_before.shape[0]
    # Two scattered PMF matrices over the full support per set (the
    # difference reuses one of them in place).
    chunk = _batch_chunk_size(n_sets, 2 * support_size, budget_bytes)
    if chunk >= n_sets:
        return _ks_from_value_counts_block(counts_before, positions_before,
                                           counts_after, positions_after, support_size)
    statistics = np.empty(n_sets)
    for start in range(0, n_sets, chunk):
        stop = min(start + chunk, n_sets)
        statistics[start:stop] = _ks_from_value_counts_block(
            counts_before[start:stop], positions_before,
            counts_after[start:stop], positions_after, support_size,
        )
    return statistics


def _ks_from_value_counts_block(counts_before: np.ndarray, positions_before: np.ndarray,
                                counts_after: np.ndarray, positions_after: np.ndarray,
                                support_size: int) -> np.ndarray:
    """One chunk of :func:`ks_from_value_counts_batch`."""
    totals_before = counts_before.sum(axis=1)
    totals_after = counts_after.sum(axis=1)
    valid = (totals_before > 0) & (totals_after > 0)
    safe_before = np.where(totals_before > 0, totals_before, 1.0)
    safe_after = np.where(totals_after > 0, totals_after, 1.0)
    n_sets = counts_before.shape[0]
    pmf_before = np.zeros((n_sets, support_size))
    pmf_after = np.zeros((n_sets, support_size))
    pmf_before[:, positions_before] = counts_before / safe_before[:, None]
    pmf_after[:, positions_after] = counts_after / safe_after[:, None]
    diff = np.cumsum(pmf_before, axis=1)
    diff -= np.cumsum(pmf_after, axis=1)
    np.abs(diff, out=diff)
    statistics = diff.max(axis=1) if support_size else np.zeros(n_sets)
    return np.where(valid, statistics, 0.0)


def ks_columns(before: Column, after: Column) -> float:
    """KS distance between the value distributions of two columns.

    This is the exact quantity used by the exceptionality interestingness
    measure: the relative-frequency distribution of the column before and
    after the operation, compared with the KS statistic.  Numeric columns use
    the vectorised two-sample path (mathematically identical, since the
    relative-frequency CDF of a column *is* its empirical CDF); categorical
    columns use a vectorised counts-over-shared-support computation with the
    supports ordered lexicographically.
    """
    numeric_before = before.is_numeric or before.is_boolean
    numeric_after = after.is_numeric or after.is_boolean
    if numeric_before and numeric_after:
        return ks_two_sample(before.values.astype(float), after.values.astype(float))
    if before.is_categorical and after.is_categorical:
        return _ks_categorical(before, after)
    return ks_from_distributions(
        ValueDistribution.from_column(before), ValueDistribution.from_column(after)
    )


def ks_from_value_counts(counts_before: np.ndarray, positions_before: np.ndarray,
                         counts_after: np.ndarray, positions_after: np.ndarray,
                         support_size: int) -> float:
    """Categorical KS from value counts scattered onto a shared, sorted support.

    ``positions_*`` place each count onto the support (values absent from one
    side keep zero mass).  An empty side scores 0 — no distribution to
    deviate from.  Shared by :func:`_ks_categorical` and the incremental
    contribution backend, which derives per-intervention counts by
    subtraction and must reproduce the exact computation bit-for-bit;
    scoring over a superset support is safe because values with zero mass on
    both sides cannot change the supremum.
    """
    total_before = counts_before.sum()
    total_after = counts_after.sum()
    if total_before <= 0 or total_after <= 0:
        return 0.0
    pmf_before = np.zeros(support_size)
    pmf_after = np.zeros(support_size)
    pmf_before[positions_before] = counts_before / total_before
    pmf_after[positions_after] = counts_after / total_after
    return float(np.max(np.abs(np.cumsum(pmf_before) - np.cumsum(pmf_after))))


def _ks_categorical(before: Column, after: Column) -> float:
    """Vectorised KS distance for two categorical columns (shared string support)."""
    codes_before, uniques_before = before.factorize()
    codes_after, uniques_after = after.factorize()
    if not uniques_before or not uniques_after:
        return 0.0
    support = np.union1d(np.asarray(uniques_before, dtype=str), np.asarray(uniques_after, dtype=str))

    counts_before = np.bincount(codes_before[codes_before >= 0], minlength=len(uniques_before))
    counts_after = np.bincount(codes_after[codes_after >= 0], minlength=len(uniques_after))
    positions_before = np.searchsorted(support, np.asarray(uniques_before, dtype=str))
    positions_after = np.searchsorted(support, np.asarray(uniques_after, dtype=str))
    return ks_from_value_counts(
        counts_before, positions_before, counts_after, positions_after, support.size
    )
