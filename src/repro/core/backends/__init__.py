"""Pluggable intervention-execution backends for the contribution phase.

The engine front-end (:class:`~repro.core.engine.FedexExplainer`) stays
stable while the execution strategy behind Definition 3.3 is swappable via
``FedexConfig(backend=...)``:

* ``"exact"`` — :class:`ExactRerunBackend`, remove → re-run → re-score (the
  reference oracle);
* ``"incremental"`` — :class:`IncrementalBackend`, batched derivation from
  precomputed per-group partials, row provenance, and shared argsorts (the
  default);
* ``"process"`` — :class:`ProcessBackend`, shards the partition ×
  attribute grid across a process pool, each shard served by an embedded
  incremental backend: inputs travel as mmap frame descriptors
  (``FedexConfig(workers=...)`` picks the pool size,
  ``FedexConfig(shard_batch=...)`` the pairs per submitted job, and
  ``FedexConfig(spill_bytes=...)`` governs spilling of in-memory inputs).
"""

from .base import ContributionBackend, available_backends, make_backend
from .exact import ExactRerunBackend
from .incremental import IncrementalBackend
from .process import ProcessBackend, shutdown_process_pools

__all__ = [
    "ContributionBackend",
    "ExactRerunBackend",
    "IncrementalBackend",
    "ProcessBackend",
    "available_backends",
    "make_backend",
    "shutdown_process_pools",
]
