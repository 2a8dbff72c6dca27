"""FEDEX core: interestingness, contribution, partitions, skyline, engine."""

from .backends import (
    ContributionBackend,
    ExactRerunBackend,
    IncrementalBackend,
    ProcessBackend,
    available_backends,
    make_backend,
    shutdown_process_pools,
)
from .candidates import ExplanationCandidate, build_candidates
from .config import (
    DEFAULT_CACHE_BUDGET_BYTES,
    DEFAULT_SAMPLE_SIZE,
    DEFAULT_SERVICE_WORKERS,
    DEFAULT_SET_COUNTS,
    FedexConfig,
    ServiceConfig,
    exact_config,
    sampling_config,
)
from .contribution import ContributionCalculator, contribution_of
from .engine import ExplainerPool, ExplanationReport, FedexExplainer, explain_step
from .explanation import Explanation, build_explanation
from .interestingness import (
    DiversityMeasure,
    ExceptionalityMeasure,
    FunctionMeasure,
    InterestingnessMeasure,
    MeasureRegistry,
    default_registry,
    measure_for_step,
)
from .measures_extra import (
    CompactnessMeasure,
    CoverageMeasure,
    SurprisingnessMeasure,
    extended_registry,
)
from .partition import (
    FrequencyPartitioner,
    ManyToOnePartitioner,
    MappingPartitioner,
    NumericBinningPartitioner,
    Partitioner,
    RowPartition,
    RowSet,
    build_partitions,
    default_partitioners,
)
from .signatures import config_signature, step_signature
from .skyline import is_dominated, rank_by_weighted_score, skyline, skyline_pairs

__all__ = [
    "CompactnessMeasure",
    "ContributionBackend",
    "ContributionCalculator",
    "CoverageMeasure",
    "DEFAULT_SAMPLE_SIZE",
    "DEFAULT_SET_COUNTS",
    "DiversityMeasure",
    "ExactRerunBackend",
    "ExceptionalityMeasure",
    "ExplainerPool",
    "Explanation",
    "ExplanationCandidate",
    "ExplanationReport",
    "FedexConfig",
    "FedexExplainer",
    "ServiceConfig",
    "FrequencyPartitioner",
    "FunctionMeasure",
    "IncrementalBackend",
    "InterestingnessMeasure",
    "ManyToOnePartitioner",
    "MappingPartitioner",
    "MeasureRegistry",
    "NumericBinningPartitioner",
    "ProcessBackend",
    "Partitioner",
    "RowPartition",
    "RowSet",
    "SurprisingnessMeasure",
    "available_backends",
    "build_candidates",
    "build_explanation",
    "build_partitions",
    "config_signature",
    "contribution_of",
    "default_partitioners",
    "default_registry",
    "exact_config",
    "explain_step",
    "extended_registry",
    "is_dominated",
    "make_backend",
    "measure_for_step",
    "rank_by_weighted_score",
    "sampling_config",
    "shutdown_process_pools",
    "skyline",
    "skyline_pairs",
    "step_signature",
]
