"""The multi-tenant explanation service front end.

:class:`ExplanationService` is the ROADMAP's serving shape: **one process,
many tenants, one shared cache, bounded memory**.  It composes the pieces
the lower layers provide —

* a shared :class:`~repro.session.store.CacheStore` (byte-budgeted,
  RW-locked, per-tenant quotas, request coalescing),
* one lightweight :class:`~repro.session.ExplanationSession` view per
  tenant (lazy, engine pool shared per configuration, thread-safe),
* a worker thread pool executing explanation requests,

— and adds what only the front end can know: per-tenant admission control
(bound the number of requests one tenant may have in flight; block or shed
the excess) and request/latency metrics.

Usage::

    from repro.service import ExplanationService

    service = ExplanationService()                   # defaults: 4 workers
    songs = service.open("alice", load_spotify())    # tenant-routed wrapper
    popular = songs.filter(Comparison("popularity", ">", 65))
    print(popular.explain().render_text())           # admission -> pool -> cache

    future = service.submit("bob", step)             # async request
    report = future.result()

    service.stats()                                  # requests, latency, hit rate
    service.close()

The front end runs on threads: the hot paths are NumPy kernels that
release the GIL, and every worker shares the store's memoized structure
for free.  For Python-heavy contribution grids the engine itself can fan
out further — a service configured with
``FedexConfig(backend="process", workers=N)`` shards each request's
partition × attribute grid across a process pool, and datasets opened via
:meth:`open_dataset` cross that boundary as mmap frame descriptors (the
workers map the same pages the service serves every tenant from; see
:mod:`repro.core.backends.process`).  Do not call :meth:`explain` from
*inside* a worker (it would wait on its own pool); compose steps first,
then submit.
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, Optional

from ..core.config import FedexConfig, ServiceConfig
from ..core.engine import ExplanationReport
from ..core.interestingness import MeasureRegistry
from ..dataframe.frame import DataFrame
from ..errors import ServiceError, ServiceOverloadError
from ..explain.explainable import ExplainableDataFrame
from ..obs.metrics import REGISTRY as _GLOBAL_REGISTRY
from ..obs.metrics import render_registries
from ..operators.step import ExploratoryStep
from ..session import CacheStore, ExplanationSession
from .metrics import ServiceMetrics


class _TenantBinding:
    """Session-shaped handle routing a tenant's explains through the service.

    :class:`~repro.explain.explainable.ExplainableDataFrame` only needs an
    object with ``explain(step, measure=..., config=...)``; binding the
    tenant here keeps the wrapper API identical whether it was opened from
    a plain session or from a service — but service-opened wrappers pass
    through admission control and metrics.
    """

    __slots__ = ("_service", "_tenant")

    def __init__(self, service: "ExplanationService", tenant: str) -> None:
        self._service = service
        self._tenant = tenant

    def explain(self, step: ExploratoryStep, measure: str | None = None,
                config: FedexConfig | None = None) -> ExplanationReport:
        return self._service.explain(self._tenant, step, measure=measure, config=config)


class ExplanationService:
    """Serves explanation requests for many concurrent tenants.

    Parameters
    ----------
    config:
        Default :class:`~repro.core.config.FedexConfig` of every tenant
        session (individual requests may override it).
    service_config:
        The serving knobs (:class:`~repro.core.config.ServiceConfig`):
        cache budget, per-tenant quotas, worker count, admission policy.
    store:
        An existing shared store — e.g. one built with ``tier=`` over a
        :class:`~repro.serving.SharedCacheTier`, so the service promotes
        reports that an earlier process wrote through to the tier.  Built
        from ``service_config`` by default.
    registry:
        Optional measure registry shared by every tenant session.  Note
        that a custom registry keys reports under a process-local
        environment token, which disables cross-restart report reuse.
    dataset_store:
        Optional :class:`~repro.storage.store.DatasetStore` (or a path to
        one) of named on-disk datasets.  :meth:`open_dataset` then serves
        any stored dataset to any tenant as an mmap-backed frame — one
        physical copy of the data per process, however many tenants
        explore it.
    """

    def __init__(self, config: FedexConfig | None = None,
                 service_config: ServiceConfig | None = None,
                 store: CacheStore | None = None,
                 registry: MeasureRegistry | None = None,
                 dataset_store=None) -> None:
        self.config = config or FedexConfig()
        self.service_config = service_config or ServiceConfig()
        if store is None:
            store = CacheStore(
                budget_bytes=self.service_config.cache_budget_bytes,
                tenant_quota_bytes=self.service_config.tenant_quota_bytes,
            )
        self.store = store
        if isinstance(dataset_store, str) or hasattr(dataset_store, "__fspath__"):
            from ..storage.store import DatasetStore

            dataset_store = DatasetStore(dataset_store)
        self.dataset_store = dataset_store
        self.metrics = ServiceMetrics()
        self.metrics.registry.register_collector(
            "service_store", self._collect_store_metrics)
        self._registry = registry
        self._sessions: Dict[str, ExplanationSession] = {}
        self._admission: Dict[str, threading.Semaphore] = {}
        self._state_lock = threading.Lock()
        self._closed = False
        self._executor = ThreadPoolExecutor(
            max_workers=self.service_config.workers,
            thread_name_prefix="fedex-service",
        )

    # ------------------------------------------------------------------ public
    def open(self, tenant: str, frame: DataFrame,
             config: FedexConfig | None = None) -> ExplainableDataFrame:
        """Wrap a dataframe so every ``explain()`` routes through this service.

        The returned wrapper records operations exactly like
        ``session.open(...)``; its explains carry the tenant identity, so
        they pass admission control, are charged to the tenant's quota, and
        appear in the tenant's metrics.
        """
        return ExplainableDataFrame(
            frame, config=config or self.config, session=_TenantBinding(self, tenant)
        )

    def open_dataset(self, tenant: str, name: str,
                     config: FedexConfig | None = None) -> ExplainableDataFrame:
        """Open a *named* stored dataset for a tenant (see ``dataset_store``).

        Every tenant opening the same name shares the dataset's mmap-backed
        buffers and column structure caches — the per-process single copy
        the multi-tenant story needs — while the returned wrapper routes
        that tenant's explains through admission control and metrics like
        :meth:`open`.  Because stored columns carry persisted fingerprints,
        the shared cache keys of the frame cost no hashing at all.
        """
        if self.dataset_store is None:
            raise ServiceError(
                "this service has no dataset store; pass dataset_store= to "
                "ExplanationService to serve named datasets"
            )
        return self.open(tenant, self.dataset_store.open(name), config=config)

    def submit(self, tenant: str, step: ExploratoryStep, measure: str | None = None,
               config: FedexConfig | None = None,
               progress=None) -> "Future[ExplanationReport]":
        """Enqueue one explanation request; returns a future for the report.

        The request first passes the tenant's admission bound
        (``max_inflight_per_tenant``): beyond it, ``admission="block"``
        waits for one of the tenant's slots, ``admission="reject"`` raises
        :class:`~repro.errors.ServiceOverloadError` immediately.

        ``progress`` is an optional callable invoked from the worker thread
        with partial-result events while the request computes (see
        :meth:`FedexExplainer.explain <repro.core.engine.FedexExplainer.explain>`);
        cached reports emit no events.  The serving layer uses it to stream
        NDJSON chunks while later shards are still computing.

        The request is keyed here, on the calling thread
        (:meth:`ExplanationSession.prepare`).  A derived step whose report
        is memoized is never materialised.  Any other step has its output
        materialised here before it is queued, so an operation that cannot
        be applied (an unknown column) raises from this call.  The pool
        worker reuses the key and runs in a copy of the caller's
        :mod:`contextvars` context, so ``repro.tracing()`` reaches it.
        """
        if self._closed:
            raise ServiceError("the explanation service has been closed")
        gate = self._admission_gate(tenant)
        if gate is not None:
            blocking = self.service_config.admission == "block"
            if not gate.acquire(blocking=blocking):
                self.metrics.record_rejected(tenant)
                raise ServiceOverloadError(
                    f"tenant {tenant!r} exceeded its in-flight bound of "
                    f"{self.service_config.max_inflight_per_tenant} requests"
                )
        # Everything between acquiring the admission slot and handing the
        # request to the pool runs under one guard: a session constructor
        # failure or a shut-down executor must release the slot (and close
        # the admitted-request accounting), never leak it.
        admitted = False
        try:
            session = self.session(tenant)
            self.metrics.record_admitted(tenant)
            admitted = True
            prepared = session.prepare(step, measure=measure, config=config)
            if not prepared.memoized:
                # Materialised on the calling thread, not a pool worker: on
                # the HTTP benchmark's cold paper suite (2-vCPU host, four
                # alternating pairs) materialising on the worker read
                # 192-199 MiB peak server RSS against 180-182 MiB here.
                step.output

            def run() -> ExplanationReport:
                start = time.perf_counter()
                kwargs = {} if progress is None else {"progress": progress}
                try:
                    report = session.explain(step, measure=measure, config=config,
                                             prepared=prepared, **kwargs)
                except Exception:
                    self.metrics.record_completed(tenant, time.perf_counter() - start,
                                                  error=True)
                    raise
                self.metrics.record_completed(tenant, time.perf_counter() - start)
                return report

            future = self._executor.submit(contextvars.copy_context().run, run)
        except BaseException:
            if admitted:
                self.metrics.record_submit_failed(tenant)
            if gate is not None:
                gate.release()
            raise
        if gate is not None:
            future.add_done_callback(lambda _future: gate.release())
        return future

    def explain(self, tenant: str, step: ExploratoryStep, measure: str | None = None,
                config: FedexConfig | None = None,
                progress=None) -> ExplanationReport:
        """Synchronous :meth:`submit` — admission, pool, metrics included."""
        return self.submit(tenant, step, measure=measure, config=config,
                           progress=progress).result()

    def session(self, tenant: str) -> ExplanationSession:
        """The tenant's session view over the shared store (created lazily)."""
        session = self._sessions.get(tenant)
        if session is None:
            with self._state_lock:
                session = self._sessions.get(tenant)
                if session is None:
                    session = ExplanationSession(
                        config=self.config, registry=self._registry,
                        store=self.store, tenant=tenant,
                    )
                    self._sessions[tenant] = session
        return session

    def tenants(self) -> list:
        """Tenants with an instantiated session."""
        with self._state_lock:
            return sorted(self._sessions)

    def stats(self, tenant: Optional[str] = None) -> Dict[str, object]:
        """Requests/latency metrics plus shared-store usage and hit rate."""
        payload: Dict[str, object] = dict(self.metrics.snapshot(tenant))
        if tenant is None:
            payload["store"] = self.store.metrics.as_dict()
            payload["store_bytes"] = self.store.usage_bytes
        else:
            payload["store_bytes"] = self.store.tenant_usage(tenant)
        return payload

    def render_metrics(self) -> str:
        """Every metric this service can see, as ONE valid Prometheus document.

        Merges the service's own registry (request counters, the latency
        histogram, and the store-usage collector), the shared store's
        counter registry, and the process-global registry
        (:data:`repro.obs.metrics.REGISTRY`, which carries the process-pool
        and fingerprint collectors) through
        :func:`~repro.obs.metrics.render_registries`: families are
        namespaced (``repro_service_``/``repro_store_``/``repro_``) and
        deduped across registries, so identically named families can no
        longer render as the duplicate metric blocks scrapers reject.
        """
        return render_registries([
            ("service", self.metrics.registry),
            ("store", self.store.metrics.registry),
            ("", _GLOBAL_REGISTRY),
        ])

    def _health(self) -> Dict[str, object]:
        with self._state_lock:
            tenants = len(self._sessions)
        return {
            "status": "closed" if self._closed else "ok",
            "tenants": tenants,
            "workers": self.service_config.workers,
            "store_bytes": self.store.usage_bytes,
        }

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests and shut the worker pool down."""
        self._closed = True
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "ExplanationService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ExplanationService(tenants={len(self._sessions)}, "
                f"workers={self.service_config.workers}, store={self.store!r})")

    # ---------------------------------------------------------------- internals
    def _collect_store_metrics(self):
        """Scrape-time gauges of the shared store's byte usage."""
        yield ("repro_service_store_bytes", "gauge",
               "Bytes of cached values held by the shared store.",
               float(self.store.usage_bytes), {})
        for tenant in self.tenants():
            yield ("repro_service_store_tenant_bytes", "gauge",
                   "Bytes of cached values charged to one tenant.",
                   float(self.store.tenant_usage(tenant)), {"tenant": tenant})

    def _admission_gate(self, tenant: str) -> Optional[threading.Semaphore]:
        bound = self.service_config.max_inflight_per_tenant
        if bound is None:
            return None
        gate = self._admission.get(tenant)
        if gate is None:
            with self._state_lock:
                gate = self._admission.get(tenant)
                if gate is None:
                    gate = threading.Semaphore(bound)
                    self._admission[tenant] = gate
        return gate
