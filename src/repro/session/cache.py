"""The per-tenant cache view of an exploration session.

A notebook exploration session revisits the same data over and over: a
filter is refined three times over the same dataframe, a group-by is
re-aggregated with a different function, a cell is simply re-run.  The
stateless engine rebuilds column argsorts, factorizations, row partitions,
and group structure from scratch every time.  :class:`SessionCache` owns all
of that cross-step state, keyed by **content fingerprints**
(:meth:`repro.dataframe.column.Column.fingerprint`), so any step touching
content-identical data reuses the intervention structure of earlier steps —
regardless of whether the dataframe objects are literally the same.

Since the multi-tenant refactor the entries themselves live in a shared,
thread-safe, byte-budgeted :class:`~repro.session.store.CacheStore`;
``SessionCache`` is the lightweight *view* one session holds over it: it
contributes the tenant identity every insert is charged to, the per-view
hit/miss statistics, and the request-scoped fingerprint memo (thread-local,
so concurrent workers serving one tenant never share a memo).  A view built
without a store gets a private ``CacheStore()`` with the default byte
budget, which bounds every layer together.

Five layers, from coarse to fine:

* **full reports** — ``(step signature, config signature, measure)`` →
  :class:`~repro.core.engine.ExplanationReport`; re-explaining an
  already-seen step is a dictionary lookup;
* **interestingness scores** — phase-1 per-attribute scores keyed by step
  content + scoring config, reused across *different* engine
  configurations of the same step;
* **row partitions** — ``(frame fingerprint, partition config)`` → built
  :class:`~repro.core.partition.RowPartition` lists; two different filters
  over the same input share every partition;
* **operation structure** — per-group row assignment of group-by steps,
  row-level provenance of sliceable steps, and left-join match structure,
  keyed by input fingerprints plus the operation's declarative description;
* **column structure** — cached argsorts / factorizations are *adopted*
  across content-identical :class:`Column` objects, so the ``O(n log n)``
  sort behind every KS re-scoring is paid once per content, not once per
  step.

Every key embeds content fingerprints that are recomputed from the raw
values on each request, so mutated data changes the fingerprint and the
lookup misses.  The one exception is the output of a *derived* step (one
built without ``output=``): the report layer keys it by lineage — operation
plus input fingerprints (:func:`~repro.core.signatures.step_signature`) —
so mutating its inputs in place still misses, but mutating its output in
place is not detected.  Pass ``output=`` to key a step by its output's
content as well.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.engine import ExplanationReport
from ..core.partition import RowPartition
from ..dataframe.column import Column
from ..dataframe.frame import DataFrame
from ..operators.step import ExploratoryStep
from .store import CacheStore, _MISSING


@dataclass
class SessionCacheStats:
    """Hit/miss counters of every cache layer (observability + tests)."""

    report_hits: int = 0
    report_misses: int = 0
    score_hits: int = 0
    score_misses: int = 0
    partition_hits: int = 0
    partition_misses: int = 0
    structure_hits: int = 0
    structure_misses: int = 0
    column_structure_hits: int = 0
    columns_adopted: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dictionary (for logging/rendering)."""
        return {name: getattr(self, name) for name in (
            "report_hits", "report_misses", "score_hits", "score_misses",
            "partition_hits", "partition_misses",
            "structure_hits", "structure_misses", "column_structure_hits",
            "columns_adopted",
        )}


class SessionCache:
    """One session's view over a (possibly shared) explanation cache store.

    The cache doubles as the engine's *context* object: it implements the
    ``adopt_step`` / ``partitions`` / ``score`` / ``groupby_structure`` /
    ``row_sources`` / ``left_join_structure`` hooks that
    :class:`~repro.core.engine.FedexExplainer` and the incremental backend
    consult when one is injected.

    Parameters
    ----------
    store:
        The shared :class:`~repro.session.store.CacheStore` holding the
        entries.  ``None`` creates a private store with the default byte
        budget.
    tenant:
        Tenant identity every insert through this view is charged to.
    """

    def __init__(self, store: Optional[CacheStore] = None,
                 tenant: str = "default") -> None:
        self.tenant = tenant
        self.store = store if store is not None else CacheStore()
        self.stats = SessionCacheStats()
        # Request-scoped fingerprint memos (id -> (object, fingerprint)); the
        # kept object reference pins the id for the memo's lifetime.  Active
        # only inside a `request()` scope and thread-local, so concurrent
        # workers sharing one view keep independent memos and the
        # mutation-invalidation contract (recompute per request) holds.
        self._local = threading.local()

    # ------------------------------------------------------- fingerprint memo
    @property
    def _request_columns(self) -> Optional[Dict[int, Tuple[Column, str]]]:
        return getattr(self._local, "columns", None)

    @property
    def _request_frames(self) -> Optional[Dict[int, Tuple[DataFrame, str]]]:
        return getattr(self._local, "frames", None)

    @contextmanager
    def request(self):
        """Scope one explanation request: fingerprints are hashed at most once.

        A single cold explain needs the same frame/column fingerprints in
        several places (step signature, column adoption, partition keys,
        structure keys); inside a ``request()`` scope those are computed once
        per object and reused.  The memo dies with the scope, so the next
        request re-hashes and in-place mutations are still detected.
        """
        local = self._local
        outer = (getattr(local, "columns", None), getattr(local, "frames", None))
        if outer[0] is None:
            local.columns = {}
            local.frames = {}
        try:
            yield self
        finally:
            local.columns, local.frames = outer

    def column_fingerprint(self, column: Column) -> str:
        """The column's content fingerprint, memoized within a request scope."""
        memo = self._request_columns
        if memo is None:
            return column.fingerprint()
        entry = memo.get(id(column))
        if entry is None or entry[0] is not column:
            entry = (column, column.fingerprint())
            memo[id(column)] = entry
        return entry[1]

    def frame_fingerprint(self, frame: DataFrame) -> str:
        """The frame's content fingerprint, memoized within a request scope."""
        memo = self._request_frames
        if memo is None:
            return frame.fingerprint(column_fingerprint=self.column_fingerprint)
        entry = memo.get(id(frame))
        if entry is None or entry[0] is not frame:
            entry = (frame, frame.fingerprint(column_fingerprint=self.column_fingerprint))
            memo[id(frame)] = entry
        return entry[1]

    # ------------------------------------------------------------ full reports
    def get_report(self, key: Tuple) -> Optional[ExplanationReport]:
        """The memoized report for a (step, config, measure) signature, if any."""
        report = self.store.get("reports", key)
        if report is None:
            self.stats.report_misses += 1
            return None
        self.stats.report_hits += 1
        return report

    def store_report(self, key: Tuple, report: ExplanationReport) -> None:
        """Memoize a full report (byte-budget eviction owned by the store)."""
        self.store.put("reports", key, report, tenant=self.tenant)

    def report_singleflight(self, key: Tuple,
                            build: Callable[[], ExplanationReport]) -> ExplanationReport:
        """Memoized report with in-flight coalescing of concurrent misses.

        Counts exactly one lookup per call: a hit when the store (or a
        concurrent leader) already holds the report, a miss when this
        caller computes it.
        """
        computed = False

        def counted_build() -> ExplanationReport:
            nonlocal computed
            computed = True
            self.stats.report_misses += 1
            return build()

        report = self.store.singleflight("reports", key, counted_build,
                                         tenant=self.tenant)
        if not computed:
            self.stats.report_hits += 1
        return report

    # ------------------------------------------------------------ read-through
    def _read_through(self, layer: str, counter: str, key: Tuple,
                      build: Callable[[], object]) -> object:
        """``layer``'s entry for ``key``, built and stored on a miss.

        Counts the lookup in :attr:`stats` as ``<counter>_hits`` or
        ``<counter>_misses``.
        """
        cached = self.store.get(layer, key, default=_MISSING)
        hit = cached is not _MISSING
        name = f"{counter}_hits" if hit else f"{counter}_misses"
        setattr(self.stats, name, getattr(self.stats, name) + 1)
        if hit:
            return cached
        built = build()
        self.store.put(layer, key, built, tenant=self.tenant)
        return built

    # ------------------------------------------------------------------ scores
    def score(self, key: Tuple, build: Callable[[], float]) -> float:
        """A phase-1 interestingness score, memoized by content key."""
        return self._read_through("scores", "score", key, build)

    # -------------------------------------------------------------- partitions
    def partitions(self, key: Tuple,
                   build: Callable[[], List[RowPartition]]) -> List[RowPartition]:
        """Partitions of one frame under one partition configuration, memoized.

        ``key`` carries the frame's content fingerprint plus the partition
        configuration (attribute, set counts, methods, input index, minimum
        group values) — the caller hashes the frame once and reuses the
        fingerprint across its per-attribute keys.
        """
        return self._read_through("partitions", "partition", key, build)

    # ----------------------------------------------------- operation structure
    def groupby_structure(self, step: ExploratoryStep, build: Callable) -> object:
        """Per-group row assignment of a group-by step, memoized by content.

        The structure depends on the (pre-filtered) input content, the key
        columns, and the pre-filter — all captured by the key — and not on
        the aggregations, so re-aggregating the same grouping reuses it.
        """
        operation = step.operation
        key = (
            "groupby",
            self.frame_fingerprint(step.inputs[0]),
            tuple(getattr(operation, "keys", ())),
            operation.pre_filter.signature() if getattr(operation, "pre_filter", None) is not None
            else None,
        )
        return self._structure(key, lambda: build(step))

    def row_sources(self, step: ExploratoryStep, build: Callable) -> object:
        """Row-level provenance of a sliceable step, memoized by content."""
        key = (
            "sources",
            step.operation.kind,
            step.operation.signature(),
            tuple(self.frame_fingerprint(frame) for frame in step.inputs),
        )
        return self._structure(key, lambda: build(step))

    def left_join_structure(self, step: ExploratoryStep, build: Callable) -> object:
        """Match structure of a left join (for right-side interventions)."""
        key = (
            "leftjoin",
            step.operation.signature(),
            tuple(self.frame_fingerprint(frame) for frame in step.inputs),
        )
        return self._structure(key, lambda: build(step))

    def _structure(self, key: Tuple, build: Callable[[], object]) -> object:
        return self._read_through("structures", "structure", key, build)

    # --------------------------------------------------------- column adoption
    def adopt_step(self, step: ExploratoryStep) -> None:
        """Adopt every column of the step's inputs and output."""
        for frame in list(step.inputs) + [step.output]:
            self.adopt_frame(frame)

    def adopt_frame(self, frame: DataFrame) -> None:
        """Adopt every column of one dataframe."""
        for column in frame.columns():
            self.adopt_column(column)

    def adopt_column(self, column: Column) -> Column:
        """Share cached argsort/factorization across content-identical columns.

        The newest adopted column becomes the canonical holder of its
        fingerprint: it inherits whatever structure the previous canonical
        column already computed, and — being the object the engine is about
        to work on — it accumulates any structure computed during the coming
        explain call, ready for the *next* adoption of the same content.

        Because the canonical column computes its structure lazily *after*
        its fingerprint was recorded, its backing array could have been
        mutated in between; the canonical's fingerprint is therefore
        re-verified before any structure is shared, so a stale canonical is
        dropped rather than poisoning a fresh content-identical column.
        """
        fingerprint = self.column_fingerprint(column)
        previous = self.store.get("columns", fingerprint)
        if previous is not None and previous is not column:
            if self.column_fingerprint(previous) != fingerprint:
                previous = None  # canonical mutated since adoption: treat as new content
        if previous is not None and previous is not column:
            if column._sorted_order is None and previous._sorted_order is not None:
                column._sorted_order = previous._sorted_order
                self.stats.column_structure_hits += 1
            if column._factorized is None and previous._factorized is not None:
                column._factorized = previous._factorized
                self.stats.column_structure_hits += 1
        self.stats.columns_adopted += 1
        self.store.put("columns", fingerprint, column, tenant=self.tenant)
        return column

    # ------------------------------------------------------------ housekeeping
    def clear(self) -> None:
        """Drop every cached entry and reset the counters.

        Clears the *store* — when the store is shared this clears it for
        every view, which is what an operator flushing a poisoned cache
        wants; per-tenant trimming is the store's quota eviction's job.
        """
        self.store.clear()
        memo = self._request_columns
        if memo is not None:
            memo.clear()
            self._request_frames.clear()
        self.stats = SessionCacheStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        store = self.store
        return (f"SessionCache(tenant={self.tenant!r}, "
                f"reports={store.layer_count('reports')}, "
                f"scores={store.layer_count('scores')}, "
                f"partitions={store.layer_count('partitions')}, "
                f"structures={store.layer_count('structures')}, "
                f"columns={store.layer_count('columns')})")
