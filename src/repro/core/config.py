"""Configuration of the FEDEX explanation engine.

All knobs of Algorithm 1 and of the fedex-Sampling optimization live here so
that experiments can sweep them declaratively.  The defaults follow the
paper: partitions of 5 and 10 sets-of-rows, a 5K-row uniform sample for the
sampling variant, and the skyline operator (optionally followed by a
weighted top-k cut).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import Optional, Sequence

from ..errors import ExplanationError
from .backends.base import DEFAULT_BACKEND, resolve_backend_class

#: Default numbers of sets-of-rows fedex tries (paper §4.3: "5 or 10").
DEFAULT_SET_COUNTS = (5, 10)

#: Default sample size of fedex-Sampling (paper §4.2/§4.3: 5K rows).
DEFAULT_SAMPLE_SIZE = 5_000

_UNSET = object()


def _is_integer(value: object) -> bool:
    """An integer that is not a ``bool`` (``True`` is no sample size)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_names(value: object) -> bool:
    """A list or tuple of column names (a bare string is refused)."""
    return isinstance(value, (list, tuple)) and all(isinstance(name, str) for name in value)


@dataclass(frozen=True)
class FedexConfig:
    """Parameters of the explanation generation process.

    Parameters
    ----------
    sample_size:
        Number of rows of the uniform sample used for the interestingness
        computation (fedex-Sampling).  ``None`` disables sampling — this is
        exact fedex.
    set_counts:
        Candidate numbers of sets-of-rows per partition; Algorithm 1 is run
        for each and the candidate pool is the union.
    top_k_columns:
        Only the ``top_k_columns`` most interesting output columns are carried
        into the contribution phase (the paper's two-step greedy process).
        ``None`` keeps every column.
    top_k_explanations:
        Maximal number of explanations returned after the skyline (ranked by
        the weighted score).  ``None`` returns the whole skyline.
    interestingness_weight / contribution_weight:
        Weights ``W_I`` and ``W_C`` of the optional weighted score used to
        rank skyline explanations.
    partition_methods:
        Which partition families to use: any subset of ``"frequency"``,
        ``"binning"``, ``"many_to_one"``.
    partition_source:
        ``"target"`` (default) partitions the input on the attribute being
        explained (and on the group-by keys for diversity steps), matching the
        paper's examples; ``"all"`` partitions on every input attribute — the
        exhaustive variant used by the ablation benchmarks.
    target_columns:
        Optional user-specified columns (§3.8): only these output columns are
        considered for explanation.
    exclude_columns:
        Output columns to skip (identifiers, free-text fields, ...).
    use_skyline:
        When False the skyline step is skipped and candidates are ranked by
        the weighted score directly (ablation).
    positive_contribution_only:
        Keep only candidates with a strictly positive raw contribution
        (Algorithm 1, line 11).  Exposed for ablation.
    seed:
        Random seed for the sampling step (determinism in tests/benchmarks).
    min_group_values:
        Partitions whose source column has fewer distinct values than this
        are skipped (a one-value partition cannot separate contributions).
    backend:
        Intervention-execution backend of the contribution phase:
        ``"incremental"`` (default) derives all row-set interventions of a
        step from shared precomputed structure, ``"exact"`` re-runs the
        operation per set-of-rows (the paper's literal semantics, kept as
        the reference oracle), and ``"process"`` shards the partition ×
        attribute grid across a process pool of incremental workers —
        inputs travel as mmap frame descriptors, so workers share the
        stored data's pages instead of receiving pickled copies.  See
        :mod:`repro.core.backends`.
    workers:
        Worker-pool size of the ``"process"`` backend.  ``None`` lets the
        backend pick (``min(4, cpu_count)``); ignored by the serial
        backends.
    shard_batch:
        How many (partition, attribute) grid pairs one submitted job of the
        ``"process"`` backend carries.  Per-pair submission (``1``) pays
        one pickle/submit/result round-trip per pair, which dominates wide
        grids of small partitions; batching amortizes it without changing
        any result — outputs stay bit-identical to serial for every batch
        size.  ``None`` (default) uses the automatic policy
        ``ceil(grid / (workers × oversubscription))``; see
        :func:`repro.core.backends.base.resolve_shard_batch`.  Ignored by
        the serial backends.
    spill_bytes:
        Spill threshold of the ``"process"`` backend: an in-memory input
        frame at or above this estimated size is written once to a
        content-addressed temp dataset and shared with the workers via
        mmap; below it the request runs on the serial incremental backend
        (process fan-out cannot pay for itself on tiny frames).  ``None``
        uses the module default
        (:data:`repro.core.backends.process.DEFAULT_SPILL_BYTES`, 4 MiB);
        ``0`` spills every in-memory input.  Storage-backed frames never
        spill — their descriptors are free.
    """

    sample_size: Optional[int] = None
    set_counts: Sequence[int] = DEFAULT_SET_COUNTS
    top_k_columns: Optional[int] = 5
    top_k_explanations: Optional[int] = None
    interestingness_weight: float = 1.0
    contribution_weight: float = 1.0
    partition_methods: Sequence[str] = ("frequency", "binning", "many_to_one")
    partition_source: str = "target"
    target_columns: Optional[Sequence[str]] = None
    exclude_columns: Sequence[str] = ()
    use_skyline: bool = True
    positive_contribution_only: bool = True
    seed: Optional[int] = 0
    min_group_values: int = 2
    backend: str = DEFAULT_BACKEND
    workers: Optional[int] = None
    shard_batch: Optional[int] = None
    spill_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        # The result-shaping fields arrive from HTTP clients too (see
        # repro.serving.protocol.ALLOWED_CONFIG_OVERRIDES): reject a wrong
        # type here, before the engine trips over it or quietly answers
        # something else.
        for name in ("sample_size", "top_k_columns", "top_k_explanations"):
            value = getattr(self, name)
            if value is not None and not (_is_integer(value) and value >= 1):
                raise ExplanationError(
                    f"{name} must be None or an integer >= 1, got {value!r}")
        if self.seed is not None and not _is_integer(self.seed):
            raise ExplanationError(f"seed must be None or an integer, got {self.seed!r}")
        for name in ("use_skyline", "positive_contribution_only"):
            if not isinstance(getattr(self, name), bool):
                raise ExplanationError(
                    f"{name} must be a bool, got {getattr(self, name)!r}")
        for name in ("interestingness_weight", "contribution_weight"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ExplanationError(f"{name} must be a real number, got {value!r}")
            # NaN and inf compare false against the sign checks below, and
            # json.loads turns a request's NaN/Infinity tokens into them.
            if not math.isfinite(value):
                raise ExplanationError(f"{name} must be finite, got {value!r}")
        if self.target_columns is not None and not _is_names(self.target_columns):
            raise ExplanationError(
                "target_columns must be None or a list of column names, "
                f"got {self.target_columns!r}")
        if not _is_names(self.exclude_columns):
            raise ExplanationError(
                f"exclude_columns must be a list of column names, got {self.exclude_columns!r}")
        if not self.set_counts:
            raise ExplanationError("set_counts must contain at least one value")
        if any(count < 1 for count in self.set_counts):
            raise ExplanationError(f"set_counts must be positive, got {list(self.set_counts)}")
        if self.partition_source not in ("target", "all"):
            raise ExplanationError(
                f"partition_source must be 'target' or 'all', got {self.partition_source!r}"
            )
        unknown = set(self.partition_methods) - {"frequency", "binning", "many_to_one"}
        if unknown:
            raise ExplanationError(f"unknown partition methods: {sorted(unknown)}")
        if self.interestingness_weight < 0 or self.contribution_weight < 0:
            raise ExplanationError("weights must be non-negative")
        if self.interestingness_weight == 0 and self.contribution_weight == 0:
            raise ExplanationError("at least one of the weights must be positive")
        resolve_backend_class(self.backend)
        if self.workers is not None and self.workers < 1:
            raise ExplanationError(f"workers must be positive, got {self.workers}")
        if self.shard_batch is not None and self.shard_batch < 1:
            raise ExplanationError(
                f"shard_batch must be positive, got {self.shard_batch}"
            )
        if self.spill_bytes is not None and self.spill_bytes < 0:
            raise ExplanationError(
                f"spill_bytes must be non-negative, got {self.spill_bytes}"
            )

    def with_backend(self, backend: str, workers=_UNSET) -> "FedexConfig":
        """A copy of this config using the given contribution backend.

        ``workers`` is only replaced when passed explicitly; omitting it
        preserves the config's existing worker count.
        """
        if workers is _UNSET:
            return replace(self, backend=backend)
        return replace(self, backend=backend, workers=workers)

    # ------------------------------------------------------------ conveniences
    def with_sampling(self, sample_size: int = DEFAULT_SAMPLE_SIZE) -> "FedexConfig":
        """A copy of this config with the fedex-Sampling optimization enabled."""
        return replace(self, sample_size=sample_size)

    def without_sampling(self) -> "FedexConfig":
        """A copy of this config with sampling disabled (exact fedex)."""
        return replace(self, sample_size=None)

    def restricted_to(self, columns: Sequence[str]) -> "FedexConfig":
        """A copy restricted to user-specified output columns (§3.8)."""
        return replace(self, target_columns=list(columns))

    @property
    def weighted_score_denominator(self) -> float:
        """``W_I + W_C`` — the denominator of the weighted explanation score."""
        return self.interestingness_weight + self.contribution_weight


#: Default global byte budget of a service's shared cache store (256 MiB).
DEFAULT_CACHE_BUDGET_BYTES = 256 * 1024 * 1024

#: Default worker-pool size of an :class:`~repro.service.ExplanationService`.
DEFAULT_SERVICE_WORKERS = 4


@dataclass(frozen=True)
class ServiceConfig:
    """Parameters of the multi-tenant explanation service front end.

    Kept separate from :class:`FedexConfig` on purpose: these knobs govern
    *serving* (shared memory, concurrency, admission) while ``FedexConfig``
    governs what one explanation computes — a service holds one of each.

    Parameters
    ----------
    cache_budget_bytes:
        Global byte budget of the shared
        :class:`~repro.session.store.CacheStore`; least-recently-used
        entries (across all tenants and cache layers) are evicted beyond
        it.  ``None`` disables byte-based eviction.
    tenant_quota_bytes:
        Per-tenant byte quota within the shared store: a tenant exceeding
        it evicts *its own* least-recently-used entries first.  ``None``
        leaves tenants bounded only by the global budget.
    workers:
        Size of the service's worker thread pool — the number of
        explanation requests executing concurrently.
    max_inflight_per_tenant:
        Admission bound: how many requests one tenant may have admitted
        (queued or executing) at once.  ``None`` admits everything.
    admission:
        What happens to a request beyond the tenant's in-flight bound:
        ``"block"`` (default) waits for a slot, ``"reject"`` raises
        :class:`~repro.errors.ServiceOverloadError` immediately (shed load).
    """

    cache_budget_bytes: Optional[int] = DEFAULT_CACHE_BUDGET_BYTES
    tenant_quota_bytes: Optional[int] = None
    workers: int = DEFAULT_SERVICE_WORKERS
    max_inflight_per_tenant: Optional[int] = None
    admission: str = "block"

    def __post_init__(self) -> None:
        if self.cache_budget_bytes is not None and self.cache_budget_bytes < 1:
            raise ExplanationError(
                f"cache_budget_bytes must be positive, got {self.cache_budget_bytes}"
            )
        if self.tenant_quota_bytes is not None and self.tenant_quota_bytes < 1:
            raise ExplanationError(
                f"tenant_quota_bytes must be positive, got {self.tenant_quota_bytes}"
            )
        if self.workers < 1:
            raise ExplanationError(f"workers must be positive, got {self.workers}")
        if self.max_inflight_per_tenant is not None and self.max_inflight_per_tenant < 1:
            raise ExplanationError(
                "max_inflight_per_tenant must be positive, got "
                f"{self.max_inflight_per_tenant}"
            )
        if self.admission not in ("block", "reject"):
            raise ExplanationError(
                f"admission must be 'block' or 'reject', got {self.admission!r}"
            )


def exact_config(**overrides) -> FedexConfig:
    """The exact-fedex configuration (no sampling), with optional overrides."""
    return FedexConfig(**overrides)


def sampling_config(sample_size: int = DEFAULT_SAMPLE_SIZE, **overrides) -> FedexConfig:
    """The fedex-Sampling configuration with the paper's default 5K sample."""
    return FedexConfig(sample_size=sample_size, **overrides)
