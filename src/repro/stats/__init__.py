"""Statistics substrate: distributions, KS statistic, dispersion, ranking metrics."""

from .dispersion import (
    coefficient_of_variation,
    fisher_pearson_skewness,
    gini_coefficient,
    mean_and_std,
    standardize,
    z_score,
)
from .distributions import ValueDistribution, aligned_cdfs
from .ks import (
    ks_columns,
    ks_from_distributions,
    ks_from_value_counts_batch,
    ks_removed_counts_batch,
    ks_two_sample,
)
from .ranking import (
    dcg,
    kendall_tau_distance,
    ndcg,
    normalized_kendall_tau_distance,
    precision_at_k,
    reciprocal_rank,
)

__all__ = [
    "ValueDistribution",
    "aligned_cdfs",
    "coefficient_of_variation",
    "dcg",
    "fisher_pearson_skewness",
    "gini_coefficient",
    "kendall_tau_distance",
    "ks_columns",
    "ks_from_distributions",
    "ks_from_value_counts_batch",
    "ks_removed_counts_batch",
    "ks_two_sample",
    "mean_and_std",
    "ndcg",
    "normalized_kendall_tau_distance",
    "precision_at_k",
    "reciprocal_rank",
    "standardize",
    "z_score",
]
