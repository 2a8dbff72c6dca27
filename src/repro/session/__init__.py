"""Exploration-session service layer: cross-step caching + stateful serving.

FEDEX explains *sequences* of exploration steps, but the core engine is
stateless.  This subsystem adds the session layer on top:

* :class:`ExplanationSession` — the stateful façade serving explanation
  requests for one exploration session (one notebook, one user);
* :class:`CacheStore` — the shared, thread-safe, byte-budgeted LRU store
  holding the entries (reports, scores, partitions, structure, columns)
  with per-tenant quotas and in-flight request coalescing.  Its byte
  budget is the only bound on what a session keeps, and a store built
  with ``tier=`` is the only way cached state outlives the process;
* :class:`SessionCache` — one session's lightweight view over a store:
  tenant identity, per-view statistics, request-scoped fingerprint memo;
* signatures (re-exported from :mod:`repro.core.signatures`) — the
  value-based step/config identities the memoization keys are built from.
"""

from ..core.signatures import config_signature, step_signature
from .cache import SessionCache, SessionCacheStats
from .session import ExplanationSession
from .store import DEFAULT_BUDGET_BYTES, CacheStore, RWLock, StoreMetrics, measured_bytes

__all__ = [
    "CacheStore",
    "DEFAULT_BUDGET_BYTES",
    "ExplanationSession",
    "RWLock",
    "SessionCache",
    "SessionCacheStats",
    "StoreMetrics",
    "config_signature",
    "step_signature",
    "measured_bytes",
]
