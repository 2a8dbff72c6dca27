"""The shared, byte-budgeted explanation cache store.

:class:`CacheStore` is the multi-tenant heart of the serving architecture:
one process-wide store of memoized explanation state — full reports,
phase-1 interestingness scores, row partitions, operation structure,
canonical columns — shared by every
:class:`~repro.session.cache.SessionCache` view (and thus every tenant) of
an :class:`~repro.service.ExplanationService`.

Design points, in the order they matter:

* **Bounded by measured bytes, not entry counts.**  A memoized report over
  a 1M-row frame and one over a 100-row frame are wildly different costs;
  the store sizes every value with :func:`measured_bytes` (a recursive
  walk that prices NumPy buffers at ``nbytes``) and evicts
  least-recently-used entries — across *all* layers, in one global LRU —
  until usage fits ``budget_bytes``.  A value that alone exceeds the
  budget is rejected outright instead of wiping the store.
* **Per-tenant byte quotas.**  Every entry is charged to the tenant that
  inserted it.  When a tenant exceeds its quota, *that tenant's*
  least-recently-used entries are evicted first, so one analyst replaying
  a giant notebook cannot evict everyone else's warm state.  Reads are
  shared: any tenant may hit any entry (the whole point of a shared
  store); quotas bound what each tenant can pin, not what it can see.
* **Reader/writer locking.**  Lookups take a shared read lock; inserts and
  evictions take the exclusive write lock.  Because an LRU *read* must
  eventually bump recency (a write), reads record their touches in a
  lock-free queue that the next writer drains — recency is batched, never
  blocking the read path.
* **In-flight request coalescing.**  :meth:`singleflight` lets concurrent
  misses on the same key share one computation: the first caller becomes
  the leader and computes, followers block on an event and read the
  stored result.  Under concurrent tenants replaying overlapping
  workloads this — not thread parallelism — is where the throughput
  multiplier comes from.
"""

from __future__ import annotations

import sys
import threading
import types
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.config import DEFAULT_CACHE_BUDGET_BYTES
from ..obs.metrics import MetricsRegistry
from ..obs.trace import current_tracer

#: Default global byte budget of a shared store (one source of truth with
#: :data:`repro.core.config.DEFAULT_CACHE_BUDGET_BYTES`, which services use).
DEFAULT_BUDGET_BYTES = DEFAULT_CACHE_BUDGET_BYTES

#: Read-side recency records are drained opportunistically once the queue
#: grows past this; a pure-hit workload must not accumulate touches forever.
_TOUCH_DRAIN_THRESHOLD = 4_096

#: Fallback object size when ``sys.getsizeof`` is unavailable for a value.
_DEFAULT_OBJECT_SIZE = 64

_MISSING = object()


# ------------------------------------------------------------------ sizing
def measured_bytes(value: object) -> int:
    """Approximate deep size of a cached value, in bytes.

    An iterative graph walk (cycle-safe via an ``id`` set) that prices
    NumPy arrays at their buffer size — the dominant cost of every cached
    artefact (reports pin row-set index arrays, partitions pin row
    indices, columns pin values plus cached argsorts) — and everything
    else at ``sys.getsizeof``.  Shared sub-objects are counted once per
    call, so the result is the marginal footprint of pinning the value.

    The walk descends into containers, ``__dict__``/``__slots__`` state,
    but never into classes, modules, or functions (shared process state is
    not attributable to one cache entry).
    """
    seen: set = set()
    total = 0
    stack: List[object] = [value]
    while stack:
        obj = stack.pop()
        identity = id(obj)
        if identity in seen:
            continue
        seen.add(identity)
        if isinstance(obj, np.ndarray):
            total += int(obj.nbytes) + _DEFAULT_OBJECT_SIZE
            if obj.dtype == np.object_:
                stack.extend(obj.tolist())
            continue
        if isinstance(obj, (type, types.ModuleType, types.FunctionType,
                            types.MethodType, types.BuiltinFunctionType)):
            continue
        try:
            total += sys.getsizeof(obj)
        except TypeError:  # pragma: no cover - exotic C extension types
            total += _DEFAULT_OBJECT_SIZE
        if isinstance(obj, (str, bytes, bytearray, int, float, complex, bool)) or obj is None:
            continue
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
            continue
        if isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
            continue
        state = getattr(obj, "__dict__", None)
        if state:
            stack.extend(state.values())
        for klass in type(obj).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                attr = getattr(obj, slot, None)
                if attr is not None:
                    stack.append(attr)
    return total


# ------------------------------------------------------------------ locking
class RWLock:
    """A readers/writer lock with writer preference.

    Any number of readers may hold the lock concurrently; a writer holds it
    exclusively.  Arriving writers block *new* readers (writer preference),
    so a steady read stream cannot starve eviction or insertion.  Not
    reentrant — the store never nests acquisitions.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self):
        """Hold the shared read lock for the duration of the block."""
        with self._condition:
            while self._writer or self._writers_waiting:
                self._condition.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._condition:
                self._readers -= 1
                if self._readers == 0:
                    self._condition.notify_all()

    @contextmanager
    def write(self):
        """Hold the exclusive write lock for the duration of the block."""
        with self._condition:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._condition.wait()
            self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._condition:
                self._writer = False
                self._condition.notify_all()


# ------------------------------------------------------------------ metrics
class StoreMetrics:
    """Aggregate counters of one shared store (all tenants, all layers).

    Backed by a :class:`~repro.obs.metrics.MetricsRegistry` — one labeled
    counter family per field, incremented under the registry lock, so
    concurrent workers count exactly — while keeping the original shape as
    views: ``store.metrics.hits`` reads, :meth:`as_dict` and
    :meth:`hit_rate` all answer from the registry.  The registry itself is
    the scrape surface (:meth:`MetricsRegistry.render_text`), concatenated
    into ``/metrics`` payloads by
    :meth:`~repro.service.service.ExplanationService.render_metrics`.
    """

    _FIELDS = ("hits", "misses", "insertions", "evictions", "quota_evictions",
               "oversize_rejections", "coalesced_requests",
               "tier_hits", "tier_misses", "tier_offers")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: self.registry.counter(
                f"repro_store_{name}_total",
                f"Cache-store lifetime count of {name.replace('_', ' ')}.",
            )
            for name in self._FIELDS
        }

    def bump(self, name: str, amount: int = 1) -> None:
        """Atomically increment one counter."""
        self._counters[name].inc(amount)

    def __getattr__(self, name: str):
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            return int(counters[name].value)
        raise AttributeError(name)

    def hit_rate(self) -> float:
        """Fraction of lookups that hit, over the store's lifetime."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """The counters (plus the derived hit rate) as a plain dictionary."""
        payload: Dict[str, float] = {
            name: int(self._counters[name].value) for name in self._FIELDS
        }
        total = payload["hits"] + payload["misses"]
        payload["hit_rate"] = payload["hits"] / total if total else 0.0
        return payload


class _Entry:
    __slots__ = ("value", "nbytes", "tenant")

    def __init__(self, value: object, nbytes: int, tenant: str) -> None:
        self.value = value
        self.nbytes = nbytes
        self.tenant = tenant


@dataclass
class _Inflight:
    """One in-flight computation being coalesced across callers."""

    event: threading.Event = field(default_factory=threading.Event)


# -------------------------------------------------------------------- store
class CacheStore:
    """Shared, thread-safe, byte-budgeted LRU store of explanation state.

    Parameters
    ----------
    budget_bytes:
        Global cap on the measured bytes of all entries.  ``None`` disables
        byte-based eviction.
    tenant_quota_bytes:
        Per-tenant byte cap.  Either one integer applied to every tenant or
        a mapping ``tenant -> quota``; tenants absent from the mapping are
        unbounded (up to the global budget).  ``None`` disables quotas.
    tier:
        Optional out-of-process second cache level (duck-typed: ``lookup``
        and ``offer``, e.g. :class:`repro.serving.SharedCacheTier`).  A
        local miss consults the tier and promotes its hit into this store
        (charged to the ``"shared"`` pseudo-tenant); local inserts are
        offered back so other replicas — and stores built later over the
        same tier — can promote them.  This write-through is the only way
        cached state outlives the process.  Tier failures (disk gone,
        unpicklable value) degrade to plain misses — the tier is an
        optimization, never a correctness dependency.
    """

    #: Tenant that tier-promoted entries are charged to.  A pseudo-tenant:
    #: no single client pinned the entry, the fleet did.
    SHARED_TENANT = "shared"

    def __init__(self, budget_bytes: Optional[int] = DEFAULT_BUDGET_BYTES,
                 tenant_quota_bytes: Optional[object] = None,
                 tier: Optional[object] = None) -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self._tenant_quotas = tenant_quota_bytes
        self._entries: "OrderedDict[Tuple[str, object], _Entry]" = OrderedDict()
        self._layer_counts: Dict[str, int] = {}
        self._usage = 0
        self._tenant_usage: Dict[str, int] = {}
        # Per-tenant recency index: tenant -> OrderedDict of that tenant's
        # composite keys in the same LRU order as _entries.  Kept in lock
        # step on insert/remove/touch so quota eviction picks a tenant's
        # LRU victim in O(1) instead of scanning the whole store.
        self._tenant_lru: Dict[str, "OrderedDict[Tuple[str, object], None]"] = {}
        self._lock = RWLock()
        self._touches: "deque[Tuple[str, object]]" = deque()
        self._inflight: Dict[Tuple[str, object], _Inflight] = {}
        self._inflight_lock = threading.Lock()
        self.tier = tier
        self.metrics = StoreMetrics()

    # ----------------------------------------------------------------- lookups
    def get(self, layer: str, key: object, default: object = None) -> object:
        """The cached value of ``(layer, key)``, bumping its recency on a hit."""
        value, outcome = self._read(layer, key)
        self.metrics.bump("misses" if value is _MISSING else "hits")
        tracer = current_tracer()
        if tracer.enabled:
            tracer.event("cache.lookup", labels={"layer": layer, "outcome": outcome})
        return default if value is _MISSING else value

    def _read(self, layer: str, key: object) -> Tuple[object, str]:
        """``(value or _MISSING, outcome)`` of a lookup, without counting it."""
        composite = (layer, key)
        with self._lock.read():
            entry = self._entries.get(composite)
        if entry is None:
            promoted = self._tier_promote(layer, key)
            return promoted, ("miss" if promoted is _MISSING else "tier_hit")
        # Recency is recorded lock-free and applied by the next writer;
        # deque.append is atomic under the GIL.  A pure-hit workload never
        # writes, so drain opportunistically once the queue grows — both to
        # bound its memory and to keep LRU order honest between writes.
        self._touches.append(composite)
        if len(self._touches) > _TOUCH_DRAIN_THRESHOLD:
            with self._lock.write():
                self._drain_touches_locked()
        return entry.value, "hit"

    def __contains__(self, composite: Tuple[str, object]) -> bool:
        """``(layer, key) in store``: local membership only.

        Not a lookup: no hit/miss is counted, recency is not bumped and
        the tier is not consulted.
        """
        with self._lock.read():
            return composite in self._entries

    # ----------------------------------------------------------------- inserts
    def put(self, layer: str, key: object, value: object, tenant: str = "default",
            nbytes: Optional[int] = None) -> bool:
        """Insert (or replace) an entry, evicting beyond budgets.

        Returns ``False`` when the value alone exceeds the global budget or
        the tenant's quota — such a value is *not* stored (storing it would
        evict the whole store and still not fit).
        """
        size = measured_bytes(value) if nbytes is None else int(nbytes)
        quota = self._quota_for(tenant)
        if (self.budget_bytes is not None and size > self.budget_bytes) or \
                (quota is not None and size > quota):
            self.metrics.bump("oversize_rejections")
            return False
        composite = (layer, key)
        with self._lock.write():
            self._drain_touches_locked()
            previous = self._entries.pop(composite, None)
            if previous is not None:
                self._account_removal_locked(composite, previous)
            self._entries[composite] = _Entry(value, size, tenant)
            self._layer_counts[layer] = self._layer_counts.get(layer, 0) + 1
            self._usage += size
            self._tenant_usage[tenant] = self._tenant_usage.get(tenant, 0) + size
            self._tenant_lru.setdefault(tenant, OrderedDict())[composite] = None
            self.metrics.bump("insertions")
            self._evict_locked(tenant)
        if self.tier is not None and tenant != self.SHARED_TENANT:
            # Write-through to the shared tier (tier-promoted entries are
            # not re-offered; they came from there).  Never fatal: one
            # replica's disk hiccup must not fail the request that computed
            # the value.
            try:
                if self.tier.offer(layer, key, value, nbytes=size):
                    self.metrics.bump("tier_offers")
            except Exception:
                pass
        return True

    # ------------------------------------------------------------ coalescing
    def singleflight(self, layer: str, key: object, build: Callable[[], object],
                     tenant: str = "default") -> object:
        """Compute-once semantics for concurrent misses on one key.

        The first caller of a missing key becomes the *leader*: it runs
        ``build()``, stores the result, and wakes the followers, which
        return the stored value without recomputing.  If the leader fails
        (or the result is evicted before a follower wakes), followers fall
        back to computing for themselves — coalescing is an optimization,
        never a correctness dependency.

        Every call counts exactly one lookup in :attr:`metrics`: a
        follower's miss is counted when it finds the key absent, and its
        re-read after the leader finishes is part of that lookup.
        """
        value = self.get(layer, key, default=_MISSING)
        if value is not _MISSING:
            return value
        composite = (layer, key)
        with self._inflight_lock:
            flight = self._inflight.get(composite)
            leader = flight is None
            if leader:
                flight = _Inflight()
                self._inflight[composite] = flight
        if not leader:
            with current_tracer().span("cache.coalesce_wait", layer=layer):
                flight.event.wait()
            self.metrics.bump("coalesced_requests")
            value, _ = self._read(layer, key)
            if value is not _MISSING:
                return value
            return build()
        try:
            value = build()
            self.put(layer, key, value, tenant=tenant)
            return value
        finally:
            with self._inflight_lock:
                self._inflight.pop(composite, None)
            flight.event.set()

    # ------------------------------------------------------------- accounting
    @property
    def usage_bytes(self) -> int:
        """Measured bytes of every stored entry (consistent snapshot)."""
        with self._lock.read():
            return self._usage

    def tenant_usage(self, tenant: str) -> int:
        """Measured bytes currently charged to one tenant."""
        with self._lock.read():
            return self._tenant_usage.get(tenant, 0)

    def tenants(self) -> List[str]:
        """Tenants with at least one charged byte."""
        with self._lock.read():
            return sorted(t for t, used in self._tenant_usage.items() if used > 0)

    def layer_count(self, layer: str) -> int:
        """Number of entries currently stored in one layer."""
        with self._lock.read():
            return self._layer_counts.get(layer, 0)

    def clear(self) -> None:
        """Drop every entry (metrics are retained; they are lifetime counters)."""
        with self._lock.write():
            self._entries.clear()
            self._layer_counts.clear()
            self._tenant_usage.clear()
            self._tenant_lru.clear()
            self._usage = 0
            self._touches.clear()

    # --------------------------------------------------------------- internals
    def _tier_promote(self, layer: str, key: object) -> object:
        """Consult the shared tier on a local miss; install and return a hit."""
        if self.tier is None:
            return _MISSING
        try:
            found = self.tier.lookup(layer, key)
        except Exception:
            found = None
        if found is None:
            self.metrics.bump("tier_misses")
            return _MISSING
        value, nbytes = found
        self.metrics.bump("tier_hits")
        self.put(layer, key, value, tenant=self.SHARED_TENANT, nbytes=nbytes)
        return value

    def _quota_for(self, tenant: str) -> Optional[int]:
        quotas = self._tenant_quotas
        if quotas is None:
            return None
        if isinstance(quotas, dict):
            return quotas.get(tenant)
        return int(quotas)

    def _drain_touches_locked(self) -> None:
        """Apply batched read-side recency bumps (write lock held)."""
        while True:
            try:
                composite = self._touches.popleft()
            except IndexError:
                return
            entry = self._entries.get(composite)
            if entry is not None:
                self._entries.move_to_end(composite)
                tenant_lru = self._tenant_lru.get(entry.tenant)
                if tenant_lru is not None and composite in tenant_lru:
                    tenant_lru.move_to_end(composite)

    def _account_removal_locked(self, composite: Tuple[str, object],
                                entry: _Entry) -> None:
        layer = composite[0]
        self._layer_counts[layer] = self._layer_counts.get(layer, 1) - 1
        self._usage -= entry.nbytes
        remaining = self._tenant_usage.get(entry.tenant, entry.nbytes) - entry.nbytes
        self._tenant_usage[entry.tenant] = max(remaining, 0)
        tenant_lru = self._tenant_lru.get(entry.tenant)
        if tenant_lru is not None:
            tenant_lru.pop(composite, None)
            if not tenant_lru:
                del self._tenant_lru[entry.tenant]

    def _evict_locked(self, inserted_tenant: str) -> None:
        # Per-tenant quota first: the inserting tenant pays for its own
        # overflow before anyone else's entries are considered.
        quota = self._quota_for(inserted_tenant)
        if quota is not None:
            while self._tenant_usage.get(inserted_tenant, 0) > quota:
                if not self._evict_one_locked(tenant=inserted_tenant):
                    break
                self.metrics.bump("quota_evictions")
        # Global byte budget last, across all layers and tenants.
        if self.budget_bytes is not None:
            while self._usage > self.budget_bytes and self._entries:
                self._evict_one_locked()

    def _evict_one_locked(self, tenant: Optional[str] = None) -> bool:
        """Evict the least-recently-used entry (optionally of one tenant).

        Tenant-targeted eviction reads the head of the tenant's own recency
        index — O(1) per eviction, so a tenant blowing its quota pays
        O(entries evicted), not O(store size) per evicted entry.
        """
        order = self._entries if tenant is None else self._tenant_lru.get(tenant)
        if not order:
            return False
        victim = next(iter(order))
        entry = self._entries.pop(victim)
        self._account_removal_locked(victim, entry)
        self.metrics.bump("evictions")
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock.read():
            counts = ", ".join(
                f"{layer}={count}" for layer, count in sorted(self._layer_counts.items())
                if count
            )
            return (f"CacheStore({counts or 'empty'}, usage={self._usage}B, "
                    f"budget={self.budget_bytes}B)")
