"""Unit tests for FedexConfig."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DEFAULT_SAMPLE_SIZE, FedexConfig, exact_config, sampling_config
from repro.errors import ExplanationError


class TestValidation:
    def test_defaults_are_valid(self):
        config = FedexConfig()
        assert config.sample_size is None
        assert tuple(config.set_counts) == (5, 10)

    def test_negative_sample_size_rejected(self):
        with pytest.raises(ExplanationError):
            FedexConfig(sample_size=0)

    def test_empty_set_counts_rejected(self):
        with pytest.raises(ExplanationError):
            FedexConfig(set_counts=())

    def test_non_positive_set_counts_rejected(self):
        with pytest.raises(ExplanationError):
            FedexConfig(set_counts=(5, 0))

    def test_unknown_partition_method_rejected(self):
        with pytest.raises(ExplanationError):
            FedexConfig(partition_methods=("frequency", "magic"))

    def test_unknown_partition_source_rejected(self):
        with pytest.raises(ExplanationError):
            FedexConfig(partition_source="some")

    def test_negative_weights_rejected(self):
        with pytest.raises(ExplanationError):
            FedexConfig(interestingness_weight=-1.0)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ExplanationError):
            FedexConfig(interestingness_weight=0.0, contribution_weight=0.0)

    @pytest.mark.parametrize("fields", [
        {"top_k_explanations": -1},
        {"top_k_explanations": 0},
        {"top_k_columns": 0},
        {"top_k_columns": -1},
        {"use_skyline": "no"},
        {"top_k_explanations": "x"},
        {"top_k_explanations": 1.5},
        {"top_k_columns": "2"},
        {"sample_size": True},
        {"exclude_columns": 5},
        {"seed": "abc", "sample_size": 500},
        {"positive_contribution_only": 1},
        {"seed": False},
        {"interestingness_weight": True},
        {"contribution_weight": "1"},
        {"target_columns": "popularity"},
        {"target_columns": ["popularity", 3]},
        {"exclude_columns": "popularity"},
        {"exclude_columns": None},
    ], ids=repr)
    def test_malformed_result_shaping_rejected(self, fields):
        with pytest.raises(ExplanationError, match=next(iter(fields))):
            FedexConfig(**fields)

    def test_accepted_value_types(self):
        config = FedexConfig(
            sample_size=np.int64(500), seed=np.int64(3), top_k_columns=1,
            top_k_explanations=None, interestingness_weight=2,
            contribution_weight=np.float64(0.5), target_columns=["a"],
            exclude_columns=("b",), use_skyline=False,
            positive_contribution_only=False,
        )
        assert config.sample_size == 500 and config.seed == 3


class TestConveniences:
    def test_with_sampling(self):
        config = FedexConfig().with_sampling()
        assert config.sample_size == DEFAULT_SAMPLE_SIZE

    def test_without_sampling(self):
        assert FedexConfig(sample_size=100).without_sampling().sample_size is None

    def test_restricted_to(self):
        config = FedexConfig().restricted_to(["a", "b"])
        assert config.target_columns == ["a", "b"]

    def test_config_is_immutable(self):
        config = FedexConfig()
        with pytest.raises(Exception):
            config.sample_size = 10

    def test_weighted_score_denominator(self):
        config = FedexConfig(interestingness_weight=2.0, contribution_weight=3.0)
        assert config.weighted_score_denominator == 5.0

    def test_factory_helpers(self):
        assert exact_config().sample_size is None
        assert sampling_config().sample_size == DEFAULT_SAMPLE_SIZE
        assert sampling_config(1_000).sample_size == 1_000

    def test_with_backend_switches_backend(self):
        config = FedexConfig().with_backend("process", workers=4)
        assert config.backend == "process"
        assert config.workers == 4

    def test_with_backend_preserves_workers_when_omitted(self):
        config = FedexConfig(workers=8).with_backend("process")
        assert config.workers == 8

    def test_shard_batch_defaults_to_automatic(self):
        assert FedexConfig().shard_batch is None
        assert FedexConfig(shard_batch=3).shard_batch == 3

    def test_non_positive_shard_batch_rejected(self):
        with pytest.raises(ExplanationError):
            FedexConfig(shard_batch=0)
        with pytest.raises(ExplanationError):
            FedexConfig(shard_batch=-2)

    def test_with_backend_preserves_shard_batch(self):
        config = FedexConfig(shard_batch=4).with_backend("process")
        assert config.shard_batch == 4
