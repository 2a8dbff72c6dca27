"""The exploration-session service layer.

:class:`ExplanationSession` is the stateful front door for explaining a
*sequence* of exploration steps — the unit FEDEX was designed around
(explaining data exploration *steps*, plural) and the shape a production
explanation service takes: one session per user/notebook, many explanation
requests against overlapping data.

The session owns everything that outlives a single ``explain()`` call:

* a :class:`~repro.session.cache.SessionCache` holding full-report memos,
  row partitions, operation structure, and adopted column
  argsorts/factorizations — all keyed by content fingerprints;
* one :class:`~repro.core.engine.FedexExplainer` per distinct configuration
  (constructed once, reused across requests) with the cache injected as its
  context;
* the measure registry and any user partitioners, shared by those engines.

Usage::

    from repro.session import ExplanationSession

    session = ExplanationSession()
    report = session.explain(step)            # cold: full Algorithm 1
    report = session.explain(step)            # warm: dictionary lookup

    songs = session.open(load_spotify())      # ExplainableDataFrame routed
    popular = songs.filter(...)               # through this session
    print(popular.explain().render_text())

A request can be keyed ahead of time with :meth:`ExplanationSession.prepare`
— on another thread than the one that explains it.  For a derived step the
key is its lineage, so a memoized report is found without applying the
step's operation (see :mod:`repro.core.signatures`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..core.config import FedexConfig
from ..core.engine import ExplainerPool, ExplanationReport, FedexExplainer
from ..core.interestingness import MeasureRegistry, default_registry
from ..core.partition import Partitioner
from ..core.signatures import config_signature, step_signature
from ..dataframe.frame import DataFrame
from ..explain.explainable import ExplainableDataFrame
from ..operators.step import ExploratoryStep
from .cache import SessionCache, SessionCacheStats
from .store import CacheStore


class _EnvironmentToken:
    """Identity-hashed marker for one session's custom measure environment."""

    __slots__ = ()


@dataclass(frozen=True)
class PreparedExplain:
    """A request keyed ahead of :meth:`ExplanationSession.explain`.

    ``key`` is the report-memo key and ``memoized`` whether the session's
    local store held that report when it was keyed.
    """

    key: Tuple
    memoized: bool


class ExplanationSession:
    """Serves explanation requests for one exploration session, statefully.

    Parameters
    ----------
    config:
        Default engine configuration of the session; individual
        :meth:`explain` calls may override it per request.
    registry:
        Interestingness measure registry shared by all the session's
        engines; defaults to the paper's two measures.
    extra_partitioners:
        User-defined partitioners appended to the built-in families (§3.8).
        Their presence disables partition caching (the cache key cannot
        capture arbitrary partitioner identity) but leaves every other
        layer active.
    cache:
        The cross-step cache view; injectable for sharing across sessions or
        for inspection in tests.  By default a fresh view over ``store``.
    store:
        Alternatively, a shared :class:`~repro.session.store.CacheStore`:
        the session builds its own lightweight :class:`SessionCache` view
        over it, charged to ``tenant``.  Ignored when ``cache`` is given.
    tenant:
        Tenant identity for store accounting (per-tenant byte quotas) when
        the session shares a store with other sessions.

    The store's byte budget is the only bound on what a session keeps: the
    session holds no reference to the steps it explained.
    """

    def __init__(self, config: FedexConfig | None = None,
                 registry: MeasureRegistry | None = None,
                 extra_partitioners: Sequence[Partitioner] | None = None,
                 cache: SessionCache | None = None,
                 store: "CacheStore | None" = None,
                 tenant: str = "default") -> None:
        self.config = config or FedexConfig()
        self.registry = registry or default_registry()
        self.extra_partitioners = list(extra_partitioners or [])
        if cache is None:
            cache = SessionCache(store=store, tenant=tenant)
        self.cache = cache
        self.tenant = cache.tenant
        self._explainers = ExplainerPool(self._build_explainer)
        # Report-memo key component identifying the session's measure/
        # partitioner environment.  Sessions with the default environment
        # share memoized reports through a shared cache; a custom registry
        # or custom partitioners cannot be identified by content, so such a
        # session keys its reports privately — under an owned sentinel
        # object rather than a raw id(), so the keys themselves keep the
        # sentinel alive and a dead session's identity can never be reused
        # by a later one against the same cache.
        if registry is None and not self.extra_partitioners:
            self._environment_token: Tuple = ("default",)
        else:
            self._environment_token = ("custom", _EnvironmentToken())

    # ------------------------------------------------------------------ public
    def prepare(self, step: ExploratoryStep, measure: str | None = None,
                config: FedexConfig | None = None) -> PreparedExplain:
        """Key a request without computing anything (see :class:`PreparedExplain`).

        Hashes what the report key needs — for a derived step only its
        inputs, so the step's operation is not applied — and tests the
        report layer for membership, which counts no lookup.  Pass the
        result to :meth:`explain` with the same step, measure and config.
        """
        effective = config or self.config
        with self.cache.request():
            key = self._report_key(step, measure, effective)
        # A membership test, not a lookup: it counts nothing and skips the
        # shared tier (a report held only there reads as absent).
        memoized = ("reports", key) in self.cache.store
        return PreparedExplain(key, memoized)

    def explain(self, step: ExploratoryStep, measure: str | None = None,
                config: FedexConfig | None = None,
                progress=None,
                prepared: Optional[PreparedExplain] = None) -> ExplanationReport:
        """Explain one exploratory step through the session's caches.

        Behaviourally identical to ``FedexExplainer(config).explain(step)``
        — same report, same scores — but warm requests reuse cross-step
        state: a step already explained under the same configuration (by
        content, not object identity) returns its memoized report, and a
        merely *overlapping* step reuses partitions, operation structure,
        and column argsorts of its predecessors.

        ``progress`` is forwarded to the engine for partial-result events;
        a memoized report (and a coalesced follower of someone else's
        computation) emits none — there is nothing partial about a cache
        hit.  ``prepared`` (from :meth:`prepare`) supplies the report key.
        """
        effective = config or self.config
        # One request scope: every fingerprint needed below (step signature,
        # column adoption, partition/structure keys) is hashed at most once.
        with self.cache.request():
            key = (prepared.key if prepared is not None
                   else self._report_key(step, measure, effective))
            compute = lambda: self._explainers.for_config(effective).explain(
                step, measure=measure, progress=progress
            )
            # Coalesced through the shared store: concurrent misses on the
            # same key (four tenants replaying one workload) share a single
            # computation instead of racing four identical ones.
            return self.cache.report_singleflight(key, compute)

    def _report_key(self, step: ExploratoryStep, measure: str | None,
                    config: FedexConfig) -> Tuple:
        """The report-memo key of a request."""
        return (
            step_signature(step, frame_fingerprint=self.cache.frame_fingerprint),
            config_signature(config), measure, self._environment_token,
        )

    def open(self, frame: DataFrame, config: FedexConfig | None = None) -> ExplainableDataFrame:
        """Wrap a dataframe so every ``explain()`` on it routes through this session."""
        return ExplainableDataFrame(frame, config=config or self.config, session=self)

    @property
    def stats(self) -> SessionCacheStats:
        """Hit/miss counters of the session's cache layers."""
        return self.cache.stats

    def clear(self) -> None:
        """Drop all cached state (reports, partitions, structure, columns)."""
        self.cache.clear()
        self._explainers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ExplanationSession(engines={len(self._explainers)}, "
                f"cache={self.cache!r})")

    # ---------------------------------------------------------------- internals
    def _build_explainer(self, config: FedexConfig) -> FedexExplainer:
        """Engine factory for the pool: session registry/partitioners/context."""
        return FedexExplainer(
            config=config, registry=self.registry,
            extra_partitioners=self.extra_partitioners, context=self.cache,
        )
