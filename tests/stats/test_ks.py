"""Unit tests for the Kolmogorov–Smirnov statistic (cross-checked against SciPy)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.dataframe import Column
from repro.stats import (
    ValueDistribution,
    ks_columns,
    ks_from_distributions,
    ks_from_value_counts_batch,
    ks_removed_counts_batch,
    ks_two_sample,
)
from repro.stats.ks import ks_from_value_counts, ks_two_sample_sorted


class TestKsTwoSample:
    def test_identical_samples_score_zero(self):
        sample = np.asarray([1.0, 2.0, 3.0])
        assert ks_two_sample(sample, sample) == 0.0

    def test_disjoint_samples_score_one(self):
        assert ks_two_sample([1.0, 2.0], [10.0, 11.0]) == pytest.approx(1.0)

    def test_matches_scipy_on_random_data(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.normal(0, 1, size=rng.integers(10, 200))
            b = rng.normal(rng.uniform(-1, 1), 1, size=rng.integers(10, 200))
            expected = scipy_stats.ks_2samp(a, b, method="asymp").statistic
            assert ks_two_sample(a, b) == pytest.approx(expected, abs=1e-9)

    def test_nan_values_ignored(self):
        assert ks_two_sample([1.0, np.nan], [1.0]) == 0.0

    def test_empty_sample_scores_zero(self):
        assert ks_two_sample([], [1.0, 2.0]) == 0.0


class TestKsFromDistributions:
    def test_identical_distributions(self):
        distribution = ValueDistribution({"a": 0.5, "b": 0.5})
        assert ks_from_distributions(distribution, distribution) == 0.0

    def test_disjoint_supports(self):
        first = ValueDistribution({"a": 1.0})
        second = ValueDistribution({"b": 1.0})
        assert ks_from_distributions(first, second) == pytest.approx(1.0)

    def test_empty_distribution_scores_zero(self):
        assert ks_from_distributions(ValueDistribution({}), ValueDistribution({"a": 1.0})) == 0.0

    def test_known_value(self):
        first = ValueDistribution({1.0: 0.5, 2.0: 0.5})
        second = ValueDistribution({1.0: 0.1, 2.0: 0.9})
        assert ks_from_distributions(first, second) == pytest.approx(0.4)

    def test_symmetry(self):
        first = ValueDistribution({1.0: 0.3, 2.0: 0.7})
        second = ValueDistribution({1.0: 0.8, 2.0: 0.2})
        assert ks_from_distributions(first, second) == pytest.approx(
            ks_from_distributions(second, first)
        )


class TestKsColumns:
    def test_numeric_columns_match_dict_implementation(self):
        rng = np.random.default_rng(1)
        before = Column("x", rng.integers(0, 20, 500).astype(float))
        after = Column("x", rng.integers(5, 20, 200).astype(float))
        expected = ks_from_distributions(
            ValueDistribution.from_column(before), ValueDistribution.from_column(after)
        )
        assert ks_columns(before, after) == pytest.approx(expected, abs=1e-9)

    def test_categorical_columns_match_dict_implementation(self):
        rng = np.random.default_rng(2)
        labels = np.asarray(["a", "b", "c", "d"], dtype=object)
        before = Column("x", labels[rng.integers(0, 4, 400)])
        after = Column("x", labels[rng.integers(2, 4, 150)])
        expected = ks_from_distributions(
            ValueDistribution.from_column(before), ValueDistribution.from_column(after)
        )
        assert ks_columns(before, after) == pytest.approx(expected, abs=1e-9)

    def test_filter_that_changes_nothing_scores_zero(self):
        column = Column("x", np.asarray([1.0, 2.0, 3.0, 4.0]))
        assert ks_columns(column, column) == 0.0

    def test_empty_side_scores_zero_for_both_regimes(self):
        """An empty column scores 0 (no distribution to deviate from) —
        the shared convention of the numeric and categorical paths, which
        the incremental backend's subtraction-based re-scoring relies on."""
        numeric = Column("x", np.asarray([1.0, 2.0]))
        empty_numeric = Column("x", np.asarray([], dtype=float))
        assert ks_columns(numeric, empty_numeric) == 0.0
        categorical = Column("c", np.asarray(["a", "b"], dtype=object))
        empty_categorical = Column("c", np.asarray([], dtype=object))
        assert ks_columns(categorical, empty_categorical) == 0.0

    def test_range_is_zero_to_one(self):
        before = Column("x", np.arange(100, dtype=float))
        after = Column("x", np.arange(90, 100, dtype=float))
        score = ks_columns(before, after)
        assert 0.0 <= score <= 1.0

    def test_running_example_shape(self):
        """A popularity filter shifts the decade distribution towards recent decades."""
        rng = np.random.default_rng(3)
        years = rng.integers(1960, 2020, 2_000)
        decades = np.asarray([f"{(y // 10) * 10}s" for y in years], dtype=object)
        popularity = (years - 1960) + rng.normal(0, 10, size=years.size)
        before = Column("decade", decades)
        after = Column("decade", decades[popularity > 45])
        assert ks_columns(before, after) > 0.2


def _factorised(sample_a, sample_b):
    """Codes of two sorted samples on their shared sorted support, plus its size."""
    support = np.union1d(sample_a, sample_b)
    return (np.searchsorted(support, sample_a), np.searchsorted(support, sample_b),
            support.size)


class TestBatchedKs:
    """The batched 2-D passes must reproduce the serial statistics bit-for-bit.

    The ``sorted_masked`` tests run :func:`ks_removed_counts_batch`: set
    ``s`` masks out the values of each sorted sample labelled ``s``.
    """

    def test_sorted_masked_batch_matches_serial(self):
        rng = np.random.default_rng(7)
        # Rounded values, so the samples tie within and across each other.
        sample_a = np.sort(np.round(rng.normal(0, 1, 300), 1))
        sample_b = np.sort(np.round(rng.normal(0.3, 1.2, 200), 1))
        labels_a = rng.integers(-1, 8, sample_a.size)
        labels_b = rng.integers(-1, 8, sample_b.size)
        codes_a, codes_b, size = _factorised(sample_a, sample_b)
        batch = ks_removed_counts_batch(codes_a, labels_a, codes_b, labels_b, size, 8)
        for row in range(8):
            serial = ks_two_sample_sorted(sample_a[labels_a != row], sample_b[labels_b != row])
            assert batch[row] == serial

    def test_sorted_masked_batch_full_side(self):
        """labels=None means every set keeps the whole sample on that side."""
        rng = np.random.default_rng(8)
        sample_a = np.sort(rng.normal(0, 1, 150))
        sample_b = np.sort(rng.normal(0.5, 1, 120))
        labels_b = rng.integers(-1, 5, sample_b.size)
        codes_a, codes_b, size = _factorised(sample_a, sample_b)
        batch = ks_removed_counts_batch(codes_a, None, codes_b, labels_b, size, 5)
        for row in range(5):
            serial = ks_two_sample_sorted(sample_a, sample_b[labels_b != row])
            assert batch[row] == serial

    def test_sorted_masked_batch_empty_subsample_scores_zero(self):
        sample = np.asarray([1.0, 2.0, 3.0])
        labels_a = np.asarray([0, 0, 0])
        labels_b = np.asarray([-1, -1, -1])
        codes, _, size = _factorised(sample, sample)
        batch = ks_removed_counts_batch(codes, labels_a, codes, labels_b, size, 2)
        assert batch[0] == 0.0
        assert batch[1] == 0.0  # identical samples

    def test_value_counts_batch_matches_serial(self):
        rng = np.random.default_rng(9)
        support_size = 6
        positions_before = np.asarray([0, 2, 3, 5])
        positions_after = np.asarray([1, 2, 4, 5])
        counts_before = rng.integers(0, 30, (7, 4)).astype(float)
        counts_after = rng.integers(0, 30, (7, 4)).astype(float)
        batch = ks_from_value_counts_batch(
            counts_before, positions_before, counts_after, positions_after, support_size
        )
        for row in range(7):
            serial = ks_from_value_counts(
                counts_before[row], positions_before,
                counts_after[row], positions_after, support_size,
            )
            assert batch[row] == serial

    def test_sorted_masked_batch_rejects_double_none(self):
        sample = np.asarray([1.0, 2.0, 3.0])
        codes, _, size = _factorised(sample, sample)
        with pytest.raises(ValueError):
            ks_removed_counts_batch(codes, None, codes, None, size, 1)

    def test_value_counts_batch_zero_mass_scores_zero(self):
        positions = np.asarray([0, 1])
        counts = np.asarray([[0.0, 0.0], [3.0, 1.0]])
        other = np.asarray([[2.0, 2.0], [2.0, 2.0]])
        batch = ks_from_value_counts_batch(counts, positions, other, positions, 2)
        assert batch[0] == 0.0


class TestChunkedBatchedKs:
    """A memory budget must chunk the 2-D passes without changing one bit.

    Rows of the batched passes are independent, so processing the sets in
    chunks (down to one set per chunk under a 1-byte budget) must reproduce
    the unchunked statistics exactly — this is the equivalence contract of
    the paper-full-scale memory bound.  The ``sorted_masked`` tests run
    :func:`ks_removed_counts_batch`.
    """

    @pytest.mark.parametrize("budget_bytes", [1, 1_000, 50_000])
    def test_sorted_masked_batch_chunked_is_bit_identical(self, budget_bytes):
        rng = np.random.default_rng(11)
        sample_a = np.sort(rng.normal(0, 1, 250))
        sample_b = np.sort(rng.normal(0.2, 1.1, 180))
        labels_a = rng.integers(-1, 13, sample_a.size)
        labels_b = rng.integers(-1, 13, sample_b.size)
        codes_a, codes_b, size = _factorised(sample_a, sample_b)
        unchunked = ks_removed_counts_batch(codes_a, labels_a, codes_b, labels_b, size, 13,
                                            budget_bytes=1 << 40)
        chunked = ks_removed_counts_batch(codes_a, labels_a, codes_b, labels_b, size, 13,
                                          budget_bytes=budget_bytes)
        assert np.array_equal(chunked, unchunked)

    @pytest.mark.parametrize("budget_bytes", [1, 2_000])
    def test_sorted_masked_batch_chunked_with_full_side(self, budget_bytes):
        rng = np.random.default_rng(12)
        sample_a = np.sort(rng.normal(0, 1, 90))
        sample_b = np.sort(rng.normal(0.4, 0.9, 140))
        labels_b = rng.integers(-1, 9, sample_b.size)
        codes_a, codes_b, size = _factorised(sample_a, sample_b)
        unchunked = ks_removed_counts_batch(codes_a, None, codes_b, labels_b, size, 9,
                                            budget_bytes=1 << 40)
        chunked = ks_removed_counts_batch(codes_a, None, codes_b, labels_b, size, 9,
                                          budget_bytes=budget_bytes)
        assert np.array_equal(chunked, unchunked)

    @pytest.mark.parametrize("budget_bytes", [1, 500])
    def test_value_counts_batch_chunked_is_bit_identical(self, budget_bytes):
        rng = np.random.default_rng(13)
        support_size = 9
        positions_before = np.asarray([0, 2, 3, 5, 8])
        positions_after = np.asarray([1, 2, 4, 6, 7])
        counts_before = rng.integers(0, 25, (11, 5)).astype(float)
        counts_after = rng.integers(0, 25, (11, 5)).astype(float)
        unchunked = ks_from_value_counts_batch(
            counts_before, positions_before, counts_after, positions_after,
            support_size, budget_bytes=1 << 40,
        )
        chunked = ks_from_value_counts_batch(
            counts_before, positions_before, counts_after, positions_after,
            support_size, budget_bytes=budget_bytes,
        )
        assert np.array_equal(chunked, unchunked)

    def test_engine_results_identical_under_tiny_ks_budget(self, monkeypatch):
        """End-to-end: a 1-byte KS budget must not change any explanation."""
        from repro.core import FedexConfig, FedexExplainer
        from repro.dataframe import Comparison, DataFrame
        from repro.operators import ExploratoryStep, Filter
        from repro.stats import ks

        rng = np.random.default_rng(14)
        frame = DataFrame({
            "value": rng.normal(50, 20, 600),
            "group": np.asarray(rng.choice(["a", "b", "c", "d"], 600), dtype=object),
        })
        step = ExploratoryStep([frame], Filter(Comparison("value", ">", 55)))
        default = FedexExplainer(FedexConfig()).explain(step)
        monkeypatch.setattr(ks, "DEFAULT_KS_BUDGET_BYTES", 1)
        budgeted = FedexExplainer(FedexConfig()).explain(step)
        assert default.skyline_keys() == budgeted.skyline_keys()
        for mine, theirs in zip(default.all_candidates, budgeted.all_candidates):
            assert mine.contribution == theirs.contribution
            assert mine.standardized_contribution == theirs.standardized_contribution
