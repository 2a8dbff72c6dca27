"""Multi-tenant explanation serving: one process, many sessions, one store.

The serving stack, bottom to top:

* :class:`~repro.session.store.CacheStore` — shared, thread-safe,
  byte-budgeted LRU store with per-tenant quotas;
* :class:`~repro.session.ExplanationSession` — one lightweight per-tenant
  view over the store;
* :class:`ExplanationService` — the concurrent front end: worker pool,
  per-tenant admission control, request/latency metrics, and
  ``service.open(tenant, frame)`` returning a tenant-routed
  :class:`~repro.explain.explainable.ExplainableDataFrame`.
"""

from ..core.config import DEFAULT_CACHE_BUDGET_BYTES, DEFAULT_SERVICE_WORKERS, ServiceConfig
from ..errors import ServiceError, ServiceOverloadError
from .metrics import ServiceMetrics
from .service import ExplanationService

__all__ = [
    "DEFAULT_CACHE_BUDGET_BYTES",
    "DEFAULT_SERVICE_WORKERS",
    "ExplanationService",
    "ServiceConfig",
    "ServiceError",
    "ServiceMetrics",
    "ServiceOverloadError",
]
