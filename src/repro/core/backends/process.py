"""The process-pool contribution backend over shared mmap frames.

:class:`ParallelBackend` sharded the partition × attribute grid across
*threads*, which wins exactly as far as the shards release the GIL.  The
Python-heavy shard mixes — wide grids of small partitions, mixed-regime KS,
exact-rerun fallbacks — serialize on it, and the ROADMAP's answer is this
backend: the same grid sharding over a ``ProcessPoolExecutor``.

The thing that makes processes affordable is the storage layer.  A worker
never receives a pickled dataframe; it receives a
:class:`~repro.storage.reader.FrameDescriptor` — store path + manifest
version + frame fingerprint + column subset, a few hundred bytes — and
re-opens the dataset itself.  The re-open memory-maps the *same* read-only
column files, so every worker shares one physical copy of the data with the
parent (and, via :func:`~repro.storage.reader.shared_dataset`, one
:class:`Dataset` handle per worker process), and the persisted column
fingerprints mean no worker ever re-hashes a stored column.

Frames that are not storage-backed are handled by policy:

* **Spill** — an in-memory input at or above ``spill_bytes`` (estimated) is
  written once to a content-addressed temp dataset
  (:func:`spill_descriptor`, keyed by the frame fingerprint so repeated
  explains over the same table spill it once per process) and shipped as a
  descriptor like any stored frame.
* **Serial fallback** — below the threshold the process fan-out cannot pay
  for itself, so the whole step runs on the embedded serial
  :class:`~repro.core.backends.incremental.IncrementalBackend` instead.

Submission is *batched*: the partition × attribute grid is cut into
:func:`~repro.core.backends.base.resolve_shard_batch`-sized batches
(``FedexConfig.shard_batch``; automatic by default) and each batch crosses
the pool as one job, so one pickle/submit/result round-trip carries many
pairs — per-pair IPC otherwise dominates wide grids of small partitions.
Every pair keeps its own slot in the batch result, so batching changes how
many futures exist, never a value.

Each worker rebuilds the step from the spec exactly once per backend
(descriptors → mmap frames → re-apply the declarative operation → an
embedded incremental backend), then serves any number of shards from that
cached state.  The backend's heavy derived structure — group-by layout,
join matches, row provenance — lives one level deeper, in a worker-global
:class:`_WorkerStructureCache` keyed by content fingerprints exactly like
the in-process :class:`~repro.session.cache.SessionCache`, so it survives
across backend tokens: the *next step* of a session grouping the same
stored frame by the same keys reuses the structure instead of re-deriving
it.  Because every shard runs the same incremental derivations over the
same values, results are keyed by shard identity and bit-identical to the
serial incremental backend regardless of worker count, batch size,
completion order, or which worker ran what.

Worker loss is survived, not propagated: a batch whose future fails — a
killed child, a broken pool, an unpicklable result — is recomputed serially
in the parent, pair by pair, by the embedded incremental backend, whose
results are bit-identical to what the lost worker would have produced; the
shared pool is discarded so later requests get a fresh one.
"""

from __future__ import annotations

import array
import atexit
import os
import pickle
import shutil
import signal
import tempfile
import threading
import time
import uuid
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import multiprocessing

try:  # POSIX advisory locks guard the work-stealing board between processes
    import fcntl
    _HAVE_FCNTL = True
except ImportError:  # pragma: no cover - non-POSIX hosts fall back to batches
    _HAVE_FCNTL = False

from ...errors import StorageError
from ...obs.metrics import REGISTRY, MetricsRegistry, registry_delta
from ...obs.trace import NOOP_TRACER, Tracer, current_tracer
from ...operators.operations import MEASURE_DIVERSITY, MEASURE_EXCEPTIONALITY
from ..interestingness import DiversityMeasure, ExceptionalityMeasure
from ..partition import RowPartition, RowSet
from .base import ContributionBackend, resolve_flag
from .costs import history_key, pair_key, plan_batches
from .incremental import IncrementalBackend
from .parallel import DEFAULT_WORKERS

_MISSING = object()

#: Default spill threshold: in-memory inputs smaller than this run serially
#: (the fork/IPC overhead dwarfs any GIL win on tiny frames); larger ones are
#: spilled to a temp dataset and shared with the workers via mmap.
DEFAULT_SPILL_BYTES = 4 * 1024 * 1024

#: Byte estimate per object-array element (pointer + small python object);
#: only the order of magnitude matters for the spill decision.
_OBJECT_BYTES_ESTIMATE = 64

#: Measures a worker can rebuild by name.  Custom measures carry arbitrary
#: callables whose identity a spec cannot capture, so they stay serial.
_BUILTIN_MEASURES = {
    MEASURE_EXCEPTIONALITY: ExceptionalityMeasure,
    MEASURE_DIVERSITY: DiversityMeasure,
}


class ProcessPoolStats:
    """Process-wide counters of process-backend activity (observability).

    Mirrors :class:`~repro.dataframe.column.FingerprintStats`: the
    equivalence suites reset these, run a whole workload, and assert the
    process path genuinely ran — a regression that silently downgraded
    every request to the serial fallback would otherwise keep the
    equivalence bars vacuously green.
    """

    __slots__ = ("shards_submitted", "shards_completed", "batches_submitted",
                 "serial_retries", "serial_fallbacks", "structure_hits",
                 "structure_misses", "steals", "stolen_pairs",
                 "shared_structure_hits", "shared_structure_stores")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.shards_submitted = 0
        self.shards_completed = 0
        self.batches_submitted = 0
        self.serial_retries = 0
        self.serial_fallbacks = 0
        self.structure_hits = 0
        self.structure_misses = 0
        self.steals = 0
        self.stolen_pairs = 0
        self.shared_structure_hits = 0
        self.shared_structure_stores = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "shards_submitted": self.shards_submitted,
            "shards_completed": self.shards_completed,
            "batches_submitted": self.batches_submitted,
            "serial_retries": self.serial_retries,
            "serial_fallbacks": self.serial_fallbacks,
            "structure_hits": self.structure_hits,
            "structure_misses": self.structure_misses,
            "steals": self.steals,
            "stolen_pairs": self.stolen_pairs,
            "shared_structure_hits": self.shared_structure_hits,
            "shared_structure_stores": self.shared_structure_stores,
        }

    def snapshot(self) -> Dict[str, int]:
        """A point-in-time copy of the counters (pairs with :meth:`delta`)."""
        return self.as_dict()

    def delta(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counter increments since a :meth:`snapshot`.

        With :func:`repro.obs.metrics.capture` this replaces the ad-hoc
        before/after arithmetic module-global counters force on callers
        (the counters bleed across tests and benchmarks).
        """
        return {name: value - before.get(name, 0)
                for name, value in self.as_dict().items()}


#: Global process-backend counters (reset freely in tests/benchmarks).
PROCESS_STATS = ProcessPoolStats()


def _collect_process_metrics():
    """Scrape-time samples of the process-backend counters (zero hot-path cost)."""
    for name, value in PROCESS_STATS.as_dict().items():
        yield (f"repro_process_{name}_total", "counter",
               "Process-backend activity counter (see ProcessPoolStats).",
               float(value), {})


REGISTRY.register_collector("process_stats", _collect_process_metrics)

#: Parent-side dispatch histogram: submit-to-first-result wall time of each
#: batch/queue job, labeled by worker pid once the result lands.
_BATCH_SECONDS = REGISTRY.histogram(
    "repro_process_batch_seconds",
    "Submit-to-result wall time of one process-backend batch, by worker.",
    ("worker",))

#: Worker-process-local registry: each batch records its per-pair compute
#: histogram and structure-tier counters here; a per-batch delta
#: (:func:`~repro.obs.metrics.registry_delta`) ships home in the batch
#: stats, and the parent merges it into the global :data:`REGISTRY` under a
#: ``worker`` label — so process-backend runs show up in the same
#: service-level scrape as in-process backends.
WORKER_REGISTRY = MetricsRegistry()
_WORKER_PAIR_SECONDS = WORKER_REGISTRY.histogram(
    "repro_worker_pair_seconds",
    "Per-pair contribution compute time inside one pool worker.")
_WORKER_BATCH_SECONDS = WORKER_REGISTRY.histogram(
    "repro_worker_batch_seconds",
    "Wall time of one batch/queue job inside a pool worker.")
_WORKER_STRUCTURE_EVENTS = WORKER_REGISTRY.counter(
    "repro_worker_structure_events_total",
    "Structure-tier cache events in a pool worker (private LRU and "
    "pool-shared store).",
    ("tier", "event"))

#: structure-delta key → (tier, event) label pair on the worker counter.
_STRUCTURE_EVENT_LABELS = (
    ("structure_hits", ("local", "hit")),
    ("structure_misses", ("local", "miss")),
    ("shared_structure_hits", ("shared", "hit")),
    ("shared_structure_stores", ("shared", "store")),
)


@dataclass(frozen=True)
class StepSpec:
    """The picklable recipe a worker uses to rebuild one exploratory step.

    Inputs travel as frame descriptors (never as data), the operation as its
    declarative self (operations re-apply deterministically, so the worker's
    recomputed output is bit-identical to the parent's), and the measure as
    a registry name.
    """

    descriptors: Tuple[object, ...]
    operation: object
    measure: str
    ks_budget_bytes: Optional[int]
    label: Optional[str] = None
    #: Directory of the pool-shared structure tier; ``None`` keeps workers
    #: on their private LRUs only.
    structure_dir: Optional[str] = None


class ProcessBackend(ContributionBackend):
    """Computes the contribution grid concurrently on a process pool.

    Parameters
    ----------
    step / measure:
        As for every backend.
    workers:
        Worker-process count; defaults to ``min(4, cpu_count)``.  Below 2
        the backend stays serial (one process pool worker is pure overhead).
    context:
        Optional session cache forwarded to the embedded incremental
        backend, so the serial fallback path composes with cross-step
        structure reuse.  Workers never see it — they own their structure.
    ks_budget_bytes:
        Forwarded to every incremental backend (parent and workers) so the
        batched-KS chunking is identical on both sides.
    shard_batch:
        Grid pairs per submitted batch (``FedexConfig.shard_batch``);
        ``None`` resolves ``REPRO_SHARD_BATCH`` and then the automatic
        policy — see :func:`~repro.core.backends.base.resolve_shard_batch`.
    spill_bytes:
        Spill threshold for in-memory inputs (see module docstring);
        ``None`` uses :data:`DEFAULT_SPILL_BYTES`, ``0`` spills everything.
    adaptive_batch:
        Cost-model batch sizing (:func:`~repro.core.backends.costs.plan_batches`):
        batches cover roughly equal predicted cost instead of equal pair
        counts.  ``None`` resolves ``REPRO_ADAPTIVE_BATCH``, then on.
    steal:
        Work-stealing between pool workers over a shared on-disk board;
        ``None`` resolves ``REPRO_STEAL``, then off.  Requires ``fcntl``
        (POSIX); elsewhere the backend silently keeps batched dispatch.
    shared_structures:
        Pool-shared structure tier: worker-built structures are published
        to a content-addressed :class:`~repro.storage.structures.StructureStore`
        shared by every worker (and post-crash replacement pools).
        ``None`` resolves ``REPRO_SHARED_STRUCTURES``, then off.
    crash_shards:
        Test hook: the first ``crash_shards`` submitted *batches* SIGKILL
        their worker mid-batch, exercising the crash-recovery path
        deterministically.  Under stealing, the first queue job dies after
        computing one pair.
    crash_after_steal:
        Test hook: a worker SIGKILLs itself immediately after a successful
        steal, exercising the crash-mid-steal recovery path.
    """

    name = "process"

    def __init__(self, step, measure, workers: Optional[int] = None, context=None,
                 ks_budget_bytes: Optional[int] = None,
                 shard_batch: Optional[int] = None,
                 spill_bytes: Optional[int] = None,
                 adaptive_batch: Optional[bool] = None,
                 steal: Optional[bool] = None,
                 shared_structures: Optional[bool] = None,
                 crash_shards: int = 0,
                 crash_after_steal: bool = False) -> None:
        super().__init__(step, measure)
        self.workers = int(workers) if workers else DEFAULT_WORKERS
        if self.workers < 1:
            self.workers = 1
        self.shard_batch = shard_batch
        self.spill_bytes = DEFAULT_SPILL_BYTES if spill_bytes is None else int(spill_bytes)
        self.adaptive_batch = resolve_flag(adaptive_batch, "REPRO_ADAPTIVE_BATCH", True)
        self.steal = resolve_flag(steal, "REPRO_STEAL", False)
        self.shared_structures = resolve_flag(shared_structures,
                                              "REPRO_SHARED_STRUCTURES", False)
        self._inner = IncrementalBackend(step, measure, context=context,
                                         ks_budget_bytes=ks_budget_bytes)
        self._context = context
        self._ks_budget_bytes = ks_budget_bytes
        self._crash_shards = int(crash_shards)
        self._crash_after_steal = bool(crash_after_steal)
        #: Worker-side state cache key of this backend instance.
        self._token = uuid.uuid4().hex
        # Values pin the partition to keep its id reserved, exactly as in
        # ParallelBackend._futures; the index selects this pair's slot in
        # the batch future's result list.
        self._futures: Dict[Tuple[int, str], Tuple[RowPartition, Future, int]] = {}
        # Batch futures whose worker-side structure counters were already
        # folded into the stats (each batch reports once, but is consumed
        # through many per-pair results).
        self._credited: set = set()
        self._pool: Optional[ProcessPoolExecutor] = None
        # Tracing: the request tracer and submitting span are captured at
        # prefetch time (future consumption happens on the engine thread,
        # but batch spans must parent under the contribution span), plus
        # per-future submit timestamps for the batch span timings.
        self._tracer = NOOP_TRACER
        self._trace_parent = None
        # (submit perf_counter, n_pairs, batch pair list or None for queue
        # jobs) — pair lists attribute measured per-pair seconds to keys.
        self._batch_meta: Dict[Future, Tuple[float, int, Optional[list]]] = {}
        #: Why the backend stayed (or fell back to) serial; None while the
        #: process path is active.  Observability for tests and operators.
        self.fallback_reason: Optional[str] = None
        #: How the batch planner sized this grid's batches
        #: (``fixed``/``env``/``count-auto``/``cost-static``/``cost-history``).
        self.batch_policy: Optional[str] = None
        self.shards_submitted = 0
        self.shards_completed = 0
        self.batches_submitted = 0
        self.serial_retries = 0
        self.structure_hits = 0
        self.structure_misses = 0
        self.steals = 0
        self.stolen_pairs = 0
        self.shared_structure_hits = 0
        self.shared_structure_stores = 0
        # Work-stealing queue state: the published board directory, the
        # pinned flat payload, pair-key → payload-index bookkeeping, merged
        # results, and the outstanding queue-job futures.
        self._queue_board: Optional[Path] = None
        self._queue_payload: Optional[list] = None
        self._queue_index: Dict[Tuple[int, str], int] = {}
        self._queue_results: Dict[int, object] = {}
        self._queue_futures: List[Future] = []
        self._queue_error_kind: Optional[str] = None
        self._queue_finalized = False
        # Measured per-pair seconds awaiting a flush into the session's
        # cost history (merge-on-write via context.store_pair_costs).
        self._pending_costs: Dict[Tuple, float] = {}
        self._history_key: Optional[Tuple] = None

    # ------------------------------------------------------------------ public
    def prefetch(self, grid: Sequence[Tuple[RowPartition, str]],
                 baselines: Dict[str, float],
                 batch_hint: Optional[int] = None) -> None:
        """Shard the partition × attribute grid across the worker processes.

        The grid is cut into :func:`resolve_shard_batch`-sized batches and
        each batch is submitted as *one* job (one pickle/submit/result
        round-trip for many pairs) — per-pair IPC otherwise dominates wide
        grids of small partitions.  Every pair keeps its own result slot, so
        batching never changes a value, only how many futures carry them.

        Builds the picklable step spec (minting descriptors, spilling
        in-memory inputs when warranted); any reason the step cannot cross a
        process boundary — tiny inputs, custom measure, unpicklable
        operation — downgrades the whole request to the serial incremental
        backend and is recorded in :attr:`fallback_reason`.
        """
        if not grid:
            return
        tracer = current_tracer()
        self._tracer = tracer
        self._trace_parent = tracer.current_span()
        with tracer.span("process.prefetch", workers=self.workers,
                         pairs=len(grid)) as pspan:
            if self.workers < 2:
                self.fallback_reason = "pool of 1 worker is pure overhead; staying serial"
                PROCESS_STATS.serial_fallbacks += 1
                pspan.set("fallback_reason", self.fallback_reason)
                return
            spec_blob = self._spec_blob()
            if spec_blob is None:
                PROCESS_STATS.serial_fallbacks += 1
                pspan.set("fallback_reason", self.fallback_reason)
                return
            pool = process_pool(self.workers)
            self._pool = pool
            pending = [(partition, attribute) for partition, attribute in grid
                       if (id(partition), attribute) not in self._futures]
            hint = batch_hint if batch_hint is not None else self.shard_batch
            plan = plan_batches(pending, workers=self.workers,
                                inner=self._inner, shard_batch=hint,
                                adaptive=self.adaptive_batch,
                                history=self._load_history())
            self.batch_policy = plan.policy
            pspan.set("batch_policy", plan.policy)
            if plan.batches:
                pspan.set("batch_size", len(plan.batches[0]))
            traced = tracer.enabled
            stealing = self.steal and _HAVE_FCNTL and len(pending) > 1
            pspan.set("steal", stealing)
            if stealing:
                self._prefetch_stealing(pool, spec_blob, plan, baselines,
                                        pspan, traced)
                pspan.set("batches", self.batches_submitted)
                return
            crash_left = self._crash_shards
            for batch in plan.batches:
                crash = crash_left > 0
                if crash:
                    crash_left -= 1
                payload = [(partition, attribute, baselines[attribute])
                           for partition, attribute in batch]
                try:
                    future = pool.submit(_run_batch, self._token, spec_blob,
                                         payload, crash, traced)
                except Exception as error:
                    # The shared pool died under us (BrokenProcessPool) or was
                    # shut down between lookup and submit (RuntimeError): the
                    # remaining shards run serially.  KeyboardInterrupt and
                    # friends propagate — a cancel must not silently turn into
                    # minutes of serial work.
                    self.fallback_reason = f"shard submission failed: {error}"
                    pspan.set("fallback_reason", self.fallback_reason)
                    _discard_pool(self.workers, pool)
                    break
                self._batch_meta[future] = (time.perf_counter(), len(batch),
                                            list(batch))
                for index, (partition, attribute) in enumerate(batch):
                    self._futures[(id(partition), attribute)] = (partition, future, index)
                self.batches_submitted += 1
                PROCESS_STATS.batches_submitted += 1
                self.shards_submitted += len(batch)
                PROCESS_STATS.shards_submitted += len(batch)
            pspan.set("batches", self.batches_submitted)

    def _load_history(self) -> Optional[Dict[Tuple, float]]:
        """The session's measured pair costs for this step, if it keeps any."""
        hook = getattr(self._context, "pair_costs", None)
        if hook is None or not self.adaptive_batch:
            return None
        try:
            if self._history_key is None:
                self._history_key = history_key(self.step)
            return hook(self._history_key) or None
        except Exception:
            return None

    def _prefetch_stealing(self, pool, spec_blob: bytes, plan, baselines,
                           pspan, traced: bool) -> None:
        """Publish the grid onto a shared board and start one job per worker.

        Each queue job loops claim-compute until the board drains, stealing
        half of the largest in-flight remainder once no unclaimed batch is
        left (see :class:`_BoardClient`).  Results come back keyed by the
        pair's global grid index, so completion order, stealing, and splits
        can never change a value — only which worker computes it.
        """
        payload = []
        for batch in plan.batches:
            for partition, attribute in batch:
                payload.append((partition, attribute, baselines[attribute]))
        try:
            board = _publish_board(payload, plan.batches)
        except Exception as error:
            self.fallback_reason = f"publishing the steal board failed: {error}"
            pspan.set("fallback_reason", self.fallback_reason)
            return
        self._queue_board = board
        self._queue_payload = payload
        self._queue_results = {}
        self._queue_finalized = False
        for index, (partition, attribute, _) in enumerate(payload):
            self._queue_index[(id(partition), attribute)] = index
        jobs = min(self.workers, len(payload))
        for job in range(jobs):
            crash_mode = 0
            if self._crash_after_steal:
                crash_mode = 2
            elif self._crash_shards > 0 and job == 0:
                crash_mode = 1
            try:
                future = pool.submit(_run_queue, self._token, spec_blob,
                                     str(board), traced, crash_mode)
            except Exception as error:
                self.fallback_reason = f"queue job submission failed: {error}"
                pspan.set("fallback_reason", self.fallback_reason)
                _discard_pool(self.workers, pool)
                break
            self._queue_futures.append(future)
            self._batch_meta[future] = (time.perf_counter(), 0, None)
            self.batches_submitted += 1
            PROCESS_STATS.batches_submitted += 1
        self.shards_submitted += len(payload)
        PROCESS_STATS.shards_submitted += len(payload)

    def partition_contributions(self, partition: RowPartition, attribute: str,
                                baseline: float):
        queue_index = self._queue_index.pop((id(partition), attribute), None)
        if queue_index is not None:
            result = self._drain_queue(queue_index)
            if result is not _MISSING:
                self.shards_completed += 1
                PROCESS_STATS.shards_completed += 1
                return result
            # The pair was claimed by a worker that died (or a queue job
            # failed) before its result came home: recompute serially —
            # bit-identical to what the lost worker would have produced.
            self.serial_retries += 1
            PROCESS_STATS.serial_retries += 1
            self._tracer.event(
                "process.serial_retry",
                labels={"kind": self._queue_error_kind or "shard_error"},
                parent=self._trace_parent,
            )
            return self._inner.partition_contributions(partition, attribute,
                                                       baseline)
        entry = self._futures.pop((id(partition), attribute), None)
        if entry is not None:
            _, future, index = entry
            try:
                results, worker_stats = future.result()
                self._credit_worker_stats(future, worker_stats)
                result = results[index]
                self.shards_completed += 1
                PROCESS_STATS.shards_completed += 1
                return result
            except BrokenProcessPool as error:
                # A worker died mid-grid (OOM-kill, crash): the pool is gone
                # for everyone, so drop it from the shared cache and recompute
                # this shard serially — the incremental derivation is
                # deterministic, so the retry is bit-identical to what the
                # lost worker would have returned.
                self.serial_retries += 1
                PROCESS_STATS.serial_retries += 1
                self._tracer.event("process.serial_retry",
                                   labels={"kind": "broken_pool"},
                                   parent=self._trace_parent)
                if self.fallback_reason is None:
                    self.fallback_reason = f"worker lost mid-grid: {error}"
                if self._pool is not None:
                    _discard_pool(self.workers, self._pool)
                    self._pool = None
            except Exception as error:
                # The shard itself failed (e.g. the worker could not resolve
                # a descriptor); the pool is healthy, only this request
                # degrades to the serial path.
                self.serial_retries += 1
                PROCESS_STATS.serial_retries += 1
                self._tracer.event("process.serial_retry",
                                   labels={"kind": "shard_error"},
                                   parent=self._trace_parent)
                if self.fallback_reason is None:
                    self.fallback_reason = f"worker shard failed: {error}"
        return self._inner.partition_contributions(partition, attribute, baseline)

    def reduced_score(self, row_set: RowSet, attribute: str) -> float:
        return self._inner.reduced_score(row_set, attribute)

    def stats(self) -> Dict[str, object]:
        """Shard counters + scheduling policy + fallback reason."""
        return {
            "workers": self.workers,
            "shards_submitted": self.shards_submitted,
            "shards_completed": self.shards_completed,
            "batches_submitted": self.batches_submitted,
            "serial_retries": self.serial_retries,
            "structure_hits": self.structure_hits,
            "structure_misses": self.structure_misses,
            "batch_policy": self.batch_policy,
            "steals": self.steals,
            "stolen_pairs": self.stolen_pairs,
            "shared_structure_hits": self.shared_structure_hits,
            "shared_structure_stores": self.shared_structure_stores,
            "fallback_reason": self.fallback_reason,
        }

    # ---------------------------------------------------------------- internals
    def _drain_queue(self, index: int):
        """Wait until pair ``index``'s result arrived, or no job can bring it.

        Queue jobs return ``{global pair index: result}`` maps as they
        drain the board; results are merged as futures complete, in
        completion order — irrelevant for values, which are keyed by index.
        A broken pool (a worker SIGKILLed mid-steal) fails *every*
        outstanding future at once; whatever results already came home
        stay valid, and the rest report ``_MISSING`` for per-pair serial
        retry by the caller.

        Once the caller has consumed the last queued pair, the remaining
        jobs have nothing left to claim, so they are all waited for: the
        board's steal counters are folded and the board removed even when
        that pair's result arrived with an earlier job.
        """
        while self._queue_futures and (index not in self._queue_results
                                       or not self._queue_index):
            done, outstanding = wait(self._queue_futures,
                                     return_when=FIRST_COMPLETED)
            self._queue_futures = list(outstanding)
            for future in done:
                try:
                    results, worker_stats = future.result()
                except BrokenProcessPool as error:
                    self._queue_error_kind = "broken_pool"
                    if self.fallback_reason is None:
                        self.fallback_reason = f"worker lost mid-grid: {error}"
                    if self._pool is not None:
                        _discard_pool(self.workers, self._pool)
                        self._pool = None
                    continue
                except Exception as error:
                    self._queue_error_kind = "shard_error"
                    if self.fallback_reason is None:
                        self.fallback_reason = f"worker queue job failed: {error}"
                    continue
                self._queue_results.update(results)
                self._credit_worker_stats(future, worker_stats)
        if not self._queue_futures:
            self._finalize_queue()
        return self._queue_results.get(index, _MISSING)

    def _finalize_queue(self) -> None:
        """Fold the board's steal counters in and remove it (exactly once).

        The counters live in the board's state file, not in worker results,
        so they survive the very crash the mid-steal test injects: a
        SIGKILLed thief never returns its stats, but its recorded steal is
        already on disk.
        """
        if self._queue_finalized or self._queue_board is None:
            return
        self._queue_finalized = True
        try:
            header = array.array("q")
            with open(self._queue_board / "state.bin", "rb") as handle:
                header.frombytes(handle.read(_HEADER_INTS * 8))
            steals, stolen = int(header[2]), int(header[3])
        except Exception:
            steals = stolen = 0
        self.steals += steals
        self.stolen_pairs += stolen
        PROCESS_STATS.steals += steals
        PROCESS_STATS.stolen_pairs += stolen
        shutil.rmtree(self._queue_board, ignore_errors=True)
        self._queue_board = None
        self._flush_costs()

    def _flush_costs(self) -> None:
        """Merge measured pair timings into the session's cost history."""
        if not self._pending_costs:
            return
        hook = getattr(self._context, "store_pair_costs", None)
        if hook is None:
            self._pending_costs.clear()
            return
        try:
            if self._history_key is None:
                self._history_key = history_key(self.step)
            hook(self._history_key, dict(self._pending_costs))
        except Exception:
            pass
        self._pending_costs.clear()
    def _credit_worker_stats(self, future: Future, worker_stats: Dict[str, int]) -> None:
        """Fold one batch's worker-side structure counters in, exactly once.

        Many per-pair results are served by one batch future; the worker's
        hit/miss delta ships with the result tuple, so the first consumer
        credits it and later consumers of the same future do not double
        count.  When the request is traced, the same once-per-future hook
        records the batch span (submit → first result, measured parent-side)
        and grafts the worker-recorded spans under it.
        """
        if future in self._credited:
            return
        self._credited.add(future)
        hits = int(worker_stats.get("structure_hits", 0))
        misses = int(worker_stats.get("structure_misses", 0))
        shared_hits = int(worker_stats.get("shared_structure_hits", 0))
        shared_stores = int(worker_stats.get("shared_structure_stores", 0))
        self.structure_hits += hits
        self.structure_misses += misses
        self.shared_structure_hits += shared_hits
        self.shared_structure_stores += shared_stores
        PROCESS_STATS.structure_hits += hits
        PROCESS_STATS.structure_misses += misses
        PROCESS_STATS.shared_structure_hits += shared_hits
        PROCESS_STATS.shared_structure_stores += shared_stores
        self._merge_worker_metrics(worker_stats)
        meta = self._batch_meta.pop(future, None)
        self._record_pair_seconds(worker_stats.get("pair_seconds"),
                                  meta[2] if meta is not None else None)
        self._flush_costs()
        if meta is not None:
            _BATCH_SECONDS.labels(
                worker=str(worker_stats.get("pid", "?"))
            ).observe(time.perf_counter() - meta[0])
        if self._tracer.enabled and meta is not None:
            submitted_pc, pairs, _ = meta
            if not pairs:
                pairs = int(worker_stats.get("pairs", 0))
            batch_span = self._tracer.add_span(
                "process.batch", parent=self._trace_parent,
                started_pc=submitted_pc,
                wall_s=time.perf_counter() - submitted_pc,
                pairs=pairs, structure_hits=hits, structure_misses=misses,
            )
            self._tracer.attach_spans(worker_stats.get("spans") or [],
                                      parent=batch_span)

    @staticmethod
    def _merge_worker_metrics(worker_stats: Dict[str, int]) -> None:
        """Fold a batch's shipped registry delta into the global registry.

        Series gain a ``worker`` label (the worker's pid), so the scrape
        endpoint can tell the pool members apart while histograms still
        aggregate across the family.  Best-effort: telemetry merging must
        never fail a dispatch.
        """
        payload = worker_stats.get("metrics")
        if not payload:
            return
        try:
            REGISTRY.merge(payload,
                           labels={"worker": str(worker_stats.get("pid", "?"))})
        except Exception:
            pass

    def _record_pair_seconds(self, seconds, batch) -> None:
        """Stash measured per-pair wall times for the session cost history.

        Batch jobs ship a list aligned with the batch's pair order; queue
        jobs ship ``{global pair index: seconds}`` resolved against the
        published payload.  Either way the entries land in
        ``self._pending_costs`` keyed by the partition/attribute identity
        that :func:`~repro.core.backends.costs.pair_key` derives, and are
        flushed to the session once the step's dispatch settles.
        """
        if not seconds:
            return
        if isinstance(seconds, dict):
            payload = self._queue_payload or []
            for index, value in seconds.items():
                if 0 <= index < len(payload):
                    partition, attribute, _ = payload[index]
                    self._pending_costs[pair_key(partition, attribute)] = float(value)
        elif batch is not None:
            for (partition, attribute), value in zip(batch, seconds):
                self._pending_costs[pair_key(partition, attribute)] = float(value)
    def _spec_blob(self) -> Optional[bytes]:
        measure_name = getattr(self.measure, "name", None)
        builtin = _BUILTIN_MEASURES.get(measure_name)
        if builtin is None or type(self.measure) is not builtin:
            self.fallback_reason = (
                f"measure {measure_name!r} is not a builtin measure a worker "
                "can rebuild by name"
            )
            return None
        descriptors = []
        for index, frame in enumerate(self.step.inputs):
            descriptor = frame.descriptor()
            if descriptor is None:
                size = frame_nbytes(frame)
                if size < self.spill_bytes:
                    self.fallback_reason = (
                        f"input {index} is ~{size} bytes, below the "
                        f"{self.spill_bytes}-byte spill threshold"
                    )
                    return None
                try:
                    descriptor = spill_descriptor(frame)
                except Exception as error:
                    self.fallback_reason = f"spilling input {index} failed: {error}"
                    return None
            descriptors.append(descriptor)
        structure_dir = None
        if self.shared_structures:
            try:
                from ...storage.structures import structure_store_root
                structure_dir = str(structure_store_root())
            except Exception:
                structure_dir = None
        spec = StepSpec(
            descriptors=tuple(descriptors), operation=self.step.operation,
            measure=measure_name, ks_budget_bytes=self._ks_budget_bytes,
            label=getattr(self.step, "label", None),
            structure_dir=structure_dir,
        )
        try:
            return pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as error:
            self.fallback_reason = f"step spec is not picklable: {error}"
            return None


def frame_nbytes(frame) -> int:
    """Estimated in-memory size of a frame, for the spill decision.

    Numeric/boolean columns answer exactly (``nbytes``); object columns are
    estimated per element — the decision needs an order of magnitude, not an
    audit.
    """
    total = 0
    for column in frame.columns():
        values = column.values
        if values.dtype == object:
            total += int(values.size) * _OBJECT_BYTES_ESTIMATE
        else:
            total += int(values.nbytes)
    return total


# ------------------------------------------------------------- spill store
_SPILL_LOCK = threading.Lock()
_SPILL_ROOT: Optional[Path] = None
_SPILLED: "OrderedDict[str, _SpillEntry]" = OrderedDict()

#: Byte budget of the on-disk spill store; least-recently-used spilled
#: datasets beyond it are deleted (workers holding their mmaps keep reading
#: — POSIX — and an evicted frame simply re-spills on next use).  Without a
#: cap, a long-lived service would keep one temp copy of every distinct
#: in-memory frame it ever explained.
DEFAULT_SPILL_BUDGET_BYTES = 1 << 30
_SPILL_BUDGET_BYTES = int(os.environ.get("REPRO_SPILL_BUDGET_BYTES",
                                         str(DEFAULT_SPILL_BUDGET_BYTES)))


class _SpillEntry:
    """Singleflight slot for one spilled fingerprint: the first caller
    writes, concurrent equal-content callers wait on the event, everyone
    else never blocks (the global lock only guards the dict)."""

    __slots__ = ("ready", "descriptor", "error", "path", "bytes")

    def __init__(self) -> None:
        self.ready = threading.Event()
        self.descriptor = None
        self.error: Optional[BaseException] = None
        self.path: Optional[Path] = None
        self.bytes = 0


def _directory_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.iterdir() if entry.is_file())


def _evict_spill_overflow(protect: str) -> None:
    """Drop least-recently-used spilled datasets beyond the byte budget.

    ``protect`` is the fingerprint the caller is about to hand out: even if
    it is the oldest entry (concurrent spills finish out of insertion
    order), evicting it would return a descriptor to a deleted path.
    """
    from ...storage.reader import _evict_shared_dataset

    doomed = []
    with _SPILL_LOCK:
        total = sum(e.bytes for e in _SPILLED.values() if e.ready.is_set())
        for fingerprint, entry in list(_SPILLED.items()):
            if total <= _SPILL_BUDGET_BYTES or len(_SPILLED) <= 1:
                break
            if fingerprint == protect:
                continue
            if not entry.ready.is_set() or entry.error is not None:
                continue  # never evict an in-flight write
            del _SPILLED[fingerprint]
            total -= entry.bytes
            doomed.append(entry.path)
    for path in doomed:
        if path is not None:
            _evict_shared_dataset(str(path))
            shutil.rmtree(path, ignore_errors=True)


def spill_descriptor(frame):
    """Write an in-memory frame to a temp dataset; return its descriptor.

    Content-addressed by the frame fingerprint: equal frames (the same
    benchmark table explained by thirty queries) are written once per
    process and every later request reuses the descriptor.  Concurrent
    spills of *different* frames proceed in parallel — only callers of the
    same fingerprint wait for its (single) write.  The store is LRU-bounded
    by :data:`_SPILL_BUDGET_BYTES`; the temp root lives until process exit,
    and workers that still hold an evicted dataset's mmap keep reading
    after the unlink (POSIX semantics).
    """
    from ...storage.reader import shared_dataset
    from ...storage.writer import write_dataset

    fingerprint = frame.fingerprint()
    with _SPILL_LOCK:
        entry = _SPILLED.get(fingerprint)
        owner = entry is None
        if owner:
            entry = _SpillEntry()
            _SPILLED[fingerprint] = entry
            global _SPILL_ROOT
            if _SPILL_ROOT is None:
                _SPILL_ROOT = Path(tempfile.mkdtemp(prefix="repro-spill-"))
                atexit.register(shutil.rmtree, str(_SPILL_ROOT), ignore_errors=True)
            root = _SPILL_ROOT
        else:
            _SPILLED.move_to_end(fingerprint)
    if owner:
        try:
            path = root / f"f{fingerprint}"
            with current_tracer().span("spill.write", rows=frame.num_rows) as span:
                write_dataset(frame, path, overwrite=True)
                entry.descriptor = shared_dataset(path).descriptor()
                entry.path = Path(entry.descriptor.path)
                entry.bytes = _directory_bytes(path)
                span.set("bytes", entry.bytes)
        except BaseException as error:
            entry.error = error
            with _SPILL_LOCK:
                _SPILLED.pop(fingerprint, None)  # let a later caller retry
            raise
        finally:
            entry.ready.set()
        with _SPILL_LOCK:
            if fingerprint in _SPILLED:
                _SPILLED.move_to_end(fingerprint)
        _evict_spill_overflow(protect=fingerprint)
        return entry.descriptor
    with current_tracer().span("spill.wait"):
        entry.ready.wait()
    if entry.error is not None:
        raise StorageError(f"concurrent spill of this frame failed: {entry.error}")
    return entry.descriptor


# ----------------------------------------------------------- shared pools
_POOL_LOCK = threading.Lock()
_POOLS: Dict[int, ProcessPoolExecutor] = {}


def _start_method() -> str:
    """The multiprocessing start method of the shared pools.

    ``fork`` when the process is still single-threaded (workers start in
    milliseconds and inherit the imported modules), ``forkserver`` once
    other threads exist — forking a multi-threaded parent (an
    :class:`~repro.service.ExplanationService` worker, say) can hand the
    child third-party locks frozen in a held state, and ``register_at_fork``
    can only re-initialise *this* package's locks.  Overridable via the
    ``REPRO_PROCESS_START_METHOD`` environment variable — everything
    shipped to workers is top-level and picklable, so every method works
    identically, just with different cold starts.
    """
    available = multiprocessing.get_all_start_methods()
    preferred = os.environ.get("REPRO_PROCESS_START_METHOD")
    if preferred:
        if preferred not in available:
            raise ValueError(
                f"REPRO_PROCESS_START_METHOD={preferred!r} is not available; "
                f"choose one of {available}"
            )
        return preferred
    if "fork" in available and threading.active_count() == 1:
        return "fork"
    for method in ("forkserver", "fork"):
        if method in available:
            return method
    return available[0]


def process_pool(workers: int) -> ProcessPoolExecutor:
    """The shared process pool for a worker count (created on first use).

    Shared across backend instances so a service explaining many steps pays
    the worker start-up once, not once per request.  Every worker is
    spawned *eagerly* at creation: the executor otherwise forks lazily per
    submit, which would let a pool whose start method was chosen while
    single-threaded (``fork``) keep forking later, after the process has
    grown threads — exactly the held-third-party-lock hazard
    :func:`_start_method` decides against.
    """
    with _POOL_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context(_start_method()),
            )
            # One submit spawns one worker unless an idle one exists;
            # briefly-sleeping warm-ups keep every already-spawned worker
            # busy through the submission loop, forcing the full
            # complement into existence now, under the threading
            # conditions the start method was picked for.
            for _ in range(workers):
                pool.submit(time.sleep, 0.05)
            _POOLS[workers] = pool
        return pool


def _discard_pool(workers: int, pool: ProcessPoolExecutor) -> None:
    """Drop a (broken) pool from the shared cache so the next user rebuilds."""
    with _POOL_LOCK:
        if _POOLS.get(workers) is pool:
            del _POOLS[workers]
    pool.shutdown(wait=False, cancel_futures=True)


def shutdown_process_pools() -> None:
    """Shut every shared pool down (tests / interpreter exit)."""
    with _POOL_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_process_pools)


def _reinit_after_fork() -> None:
    """Fresh locks and no inherited pool handles in a forked child.

    A parent thread may hold the spill/pool lock at fork time (which would
    deadlock the child the moment it touched either), and a child must
    never talk to executor objects it inherited from the parent.
    """
    global _SPILL_LOCK, _POOL_LOCK, _BOARD_LOCK
    _SPILL_LOCK = threading.Lock()
    _POOL_LOCK = threading.Lock()
    _BOARD_LOCK = threading.Lock()
    _POOLS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_after_fork)


# ------------------------------------------------------------- steal board
# The work-stealing queue between parent and workers.  A board is one
# directory per prefetch: ``pairs.pkl`` holds the pickled flat pair payload
# (published once, read once per worker), ``state.bin`` holds the live
# scheduling state as a flat int64 array, and ``lock`` is the file an
# ``fcntl.flock`` serializes claims through.  No manager process, no
# sockets: claiming a pair is one flock + one small read-modify-write.
#
# ``state.bin`` layout (little-endian int64s):
#   header  [slot capacity, slots used, steals, stolen pairs]
#   slot i  [start, end, next, owner]      (owner -1 until claimed)
# A slot is a contiguous half-open index range [start, end) over the
# payload; ``next`` is the first unclaimed index within it.  Stealing
# splits the victim's *remaining* range in half — the victim keeps the
# front (its next pair is untouched, so per-pair results stay bit-identical
# no matter who computes what), the thief takes the back as a new slot.
_BOARD_LOCK = threading.Lock()
_BOARD_ROOT: Optional[Path] = None
_HEADER_INTS = 4
_SLOT_INTS = 4
#: Extra slot capacity beyond the initial batch count; every steal adds one
#: slot, and a grid can be stolen at most once per remaining pair, so this
#: is far beyond what any real run consumes.
_BOARD_SLOT_HEADROOM = 256


def _board_root() -> Path:
    """Process-lifetime directory for steal boards (one subdir per prefetch)."""
    global _BOARD_ROOT
    with _BOARD_LOCK:
        if _BOARD_ROOT is None:
            root = Path(tempfile.mkdtemp(prefix="repro-steal-"))
            atexit.register(shutil.rmtree, root, ignore_errors=True)
            _BOARD_ROOT = root
        return _BOARD_ROOT


def _publish_board(payload, batches) -> Path:
    """Write one prefetch's pair payload + scheduling state to a fresh board.

    ``batches`` (the cost-planned batches, in payload order) become the
    initial slots, so the board starts exactly where static dispatch would
    — stealing only changes *who* computes a pair, never the pair set.
    """
    board = _board_root() / uuid.uuid4().hex
    board.mkdir()
    with open(board / "pairs.pkl", "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    capacity = len(batches) + _BOARD_SLOT_HEADROOM
    values = [capacity, len(batches), 0, 0]
    offset = 0
    for batch in batches:
        values.extend((offset, offset + len(batch), offset, -1))
        offset += len(batch)
    values.extend([0] * ((capacity - len(batches)) * _SLOT_INTS))
    with open(board / "state.bin", "wb") as handle:
        handle.write(array.array("q", values).tobytes())
    (board / "lock").touch()
    return board


class _BoardClient:
    """One worker's handle on a steal board: claim, advance, steal."""

    __slots__ = ("_lock_fh", "_state_path", "_slot")

    def __init__(self, board_dir: str) -> None:
        board = Path(board_dir)
        self._lock_fh = open(board / "lock", "rb")
        self._state_path = board / "state.bin"
        self._slot: Optional[int] = None

    def _read(self) -> "array.array":
        state = array.array("q")
        with open(self._state_path, "rb") as handle:
            state.frombytes(handle.read())
        return state

    def _write(self, state: "array.array") -> None:
        with open(self._state_path, "r+b") as handle:
            handle.write(state.tobytes())

    def claim_next(self) -> Optional[Tuple[int, bool]]:
        """Claim one payload index, or ``None`` when the board is drained.

        Returns ``(index, stole)``; ``stole`` is True exactly when the
        index came from splitting another worker's remaining range (the
        crash-mid-steal hook keys off it).  Preference order: advance the
        slot this client already owns, claim a never-claimed slot, then
        steal from the victim with the largest remainder — splitting at
        ``end - remainder // 2`` so a remainder of ``r >= 2`` leaves the
        victim ``ceil(r / 2) >= 1`` pairs and never moves its ``next``.
        """
        fcntl.flock(self._lock_fh, fcntl.LOCK_EX)
        try:
            state = self._read()
            used = state[1]
            if self._slot is not None:
                base = _HEADER_INTS + self._slot * _SLOT_INTS
                if state[base + 2] < state[base + 1]:
                    index = int(state[base + 2])
                    state[base + 2] += 1
                    self._write(state)
                    return index, False
                self._slot = None
            pid = os.getpid()
            for slot in range(used):
                base = _HEADER_INTS + slot * _SLOT_INTS
                if state[base + 3] == -1 and state[base + 2] < state[base + 1]:
                    state[base + 3] = pid
                    index = int(state[base + 2])
                    state[base + 2] += 1
                    self._write(state)
                    self._slot = slot
                    return index, False
            victim, best = -1, 1
            for slot in range(used):
                base = _HEADER_INTS + slot * _SLOT_INTS
                remainder = state[base + 1] - state[base + 2]
                if remainder > best:
                    victim, best = slot, remainder
            if victim >= 0 and used < state[0]:
                vbase = _HEADER_INTS + victim * _SLOT_INTS
                end = int(state[vbase + 1])
                mid = end - int(best) // 2
                state[vbase + 1] = mid
                nbase = _HEADER_INTS + used * _SLOT_INTS
                state[nbase] = mid
                state[nbase + 1] = end
                state[nbase + 2] = mid + 1
                state[nbase + 3] = pid
                state[1] = used + 1
                state[2] += 1
                state[3] += end - mid
                self._write(state)
                self._slot = int(used)
                return mid, True
            return None
        finally:
            fcntl.flock(self._lock_fh, fcntl.LOCK_UN)


# ------------------------------------------------------------- worker side
class _WorkerStructureCache:
    """Cross-step structure reuse inside one worker process.

    Implements the same hooks a :class:`~repro.session.cache.SessionCache`
    offers an :class:`IncrementalBackend` (``row_sources`` /
    ``groupby_structure`` / ``left_join_structure``), with the same
    content-addressed keys: frame fingerprints plus the operation's
    declarative signature.  One module-level instance outlives every
    :class:`_WorkerState` — backend tokens change per step, but two steps
    grouping the same stored frame by the same keys resolve to the same
    fingerprints, so the second step's workers reuse the first step's group
    structure instead of re-deriving it (mirroring in-process session
    reuse).

    Keys invalidate themselves: a worker frame is descriptor-resolved, so
    its fingerprint comes from the persisted manifest — a rewritten dataset
    yields a new fingerprint and therefore a fresh entry, never a stale
    one.  The LRU cap bounds a long-lived worker serving many distinct
    steps.
    """

    __slots__ = ("_entries", "_cap", "hits", "misses", "shared",
                 "shared_hits", "shared_stores")

    def __init__(self, cap: int) -> None:
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self._cap = cap
        self.hits = 0
        self.misses = 0
        #: Optional pool-shared :class:`~repro.storage.structures.StructureStore`
        #: consulted between the in-memory LRU and a rebuild.  The store uses
        #: the *same* content-addressed keys, so an entry built by any worker
        #: (or a pre-crash pool) is valid for every other worker.
        self.shared = None
        self.shared_hits = 0
        self.shared_stores = 0

    def _memo(self, key: Tuple, build) -> object:
        value = self._entries.get(key, _MISSING)
        if value is not _MISSING:
            self._entries.move_to_end(key)
            self.hits += 1
            return value
        self.misses += 1
        if self.shared is not None:
            found, value = self.shared.get(key)
            if found:
                self.shared_hits += 1
                self._insert(key, value)
                return value
        value = build()
        self._insert(key, value)
        if self.shared is not None and self.shared.put(key, value):
            self.shared_stores += 1
        return value

    def _insert(self, key: Tuple, value: object) -> None:
        self._entries[key] = value
        while len(self._entries) > self._cap:
            self._entries.popitem(last=False)

    def _input_fingerprints(self, step) -> Tuple[str, ...]:
        return tuple(frame.fingerprint() for frame in step.inputs)

    # The key layouts mirror SessionCache's structure layer, so the sharing
    # semantics (what invalidates, what is reused across which steps) are
    # identical in and out of process.
    def groupby_structure(self, step, build):
        operation = step.operation
        pre_filter = getattr(operation, "pre_filter", None)
        key = (
            "groupby", step.inputs[0].fingerprint(),
            tuple(getattr(operation, "keys", ())),
            pre_filter.signature() if pre_filter is not None else None,
        )
        return self._memo(key, lambda: build(step))

    def row_sources(self, step, build):
        key = ("sources", step.operation.kind, step.operation.signature(),
               self._input_fingerprints(step))
        return self._memo(key, lambda: build(step))

    def left_join_structure(self, step, build):
        key = ("leftjoin", step.operation.signature(),
               self._input_fingerprints(step))
        return self._memo(key, lambda: build(step))


#: Entry cap of the worker structure cache; structures are priced per step,
#: not per byte, so the cap is the simple bound on a worker that serves many
#: distinct steps back to back.
_WORKER_STRUCTURE_CAP = int(os.environ.get("REPRO_WORKER_STRUCTURE_CAP", "32"))

#: The per-worker-process structure cache (survives across backend tokens).
_WORKER_STRUCTURES = _WorkerStructureCache(_WORKER_STRUCTURE_CAP)


class _WorkerState:
    """One rebuilt step + embedded incremental backend inside a worker."""

    __slots__ = ("step", "backend", "shared")

    def __init__(self, step, backend, shared=None) -> None:
        self.step = step
        self.backend = backend
        #: The pool-shared structure store this step's spec asked for (or
        #: None); installed on :data:`_WORKER_STRUCTURES` for the duration
        #: of each job serving this state.
        self.shared = shared


#: Per-worker-process cache of rebuilt states, keyed by backend token.  The
#: cap bounds a worker serving many steps: an evicted state costs one
#: rebuild (the mmap buffers themselves stay cached in shared_dataset, and
#: the heavy derived structure stays cached in _WORKER_STRUCTURES).
_WORKER_STATES: "OrderedDict[str, _WorkerState]" = OrderedDict()
_WORKER_STATE_CAP = 4


def _build_worker_state(spec: StepSpec) -> _WorkerState:
    from ...dataframe.frame import DataFrame
    from ...operators.step import ExploratoryStep

    inputs = [DataFrame.from_descriptor(descriptor) for descriptor in spec.descriptors]
    # The output is recomputed, not shipped: operations are declarative and
    # deterministic, so re-applying them over the shared mmap frames yields
    # the parent's output bit for bit.
    step = ExploratoryStep(inputs, spec.operation, label=spec.label)
    measure = _BUILTIN_MEASURES[spec.measure]()
    # The worker-global structure cache plugs in as the backend's context —
    # group-by/join structure and row provenance are then keyed by content
    # and survive this state's eviction (and the session's next step).
    backend = IncrementalBackend(step, measure, context=_WORKER_STRUCTURES,
                                 ks_budget_bytes=spec.ks_budget_bytes)
    shared = None
    if spec.structure_dir:
        try:
            from ...storage.structures import StructureStore
            shared = StructureStore(Path(spec.structure_dir))
        except Exception:
            shared = None
    return _WorkerState(step, backend, shared=shared)


def _worker_state(token: str, spec_blob: bytes) -> _WorkerState:
    state = _WORKER_STATES.get(token)
    if state is None:
        state = _build_worker_state(pickle.loads(spec_blob))
        _WORKER_STATES[token] = state
        while len(_WORKER_STATES) > _WORKER_STATE_CAP:
            _WORKER_STATES.popitem(last=False)
    else:
        _WORKER_STATES.move_to_end(token)
    return state


def _run_batch(token: str, spec_blob: bytes,
               pairs: Sequence[Tuple[RowPartition, str, float]],
               crash: bool = False, trace: bool = False):
    """One batch of grid shards inside a worker process.

    Returns ``(results, stats)``: one contribution list per
    ``(partition, attribute, baseline)`` pair, in batch order, plus the
    worker's structure-cache hit/miss delta for this batch (exact, because
    a pool worker runs one batch at a time).  When the parent's request is
    traced (``trace``), the batch runs under a worker-local tracer and the
    finished span dicts travel home in ``stats["spans"]``, where the parent
    grafts them under its batch span.

    ``crash`` is the test hook of the crash-recovery suite: it kills the
    worker the way a real failure would (no exception, no cleanup, halfway
    through the batch), so the parent sees a broken pool — with some pairs
    already computed and lost — not an error result.
    """
    state = _worker_state(token, spec_blob)
    _WORKER_STRUCTURES.shared = state.shared
    before = _structure_counters()
    metrics_before = WORKER_REGISTRY.dump()
    crash_at = len(pairs) // 2 if crash else -1
    local = Tracer() if trace else NOOP_TRACER
    results = []
    seconds: List[float] = []
    batch_started = time.perf_counter()
    with local.span("worker.batch", pid=os.getpid(), pairs=len(pairs)) as wspan:
        for index, (partition, attribute, baseline) in enumerate(pairs):
            if index == crash_at:
                os.kill(os.getpid(), signal.SIGKILL)
            started = time.perf_counter()
            results.append(
                state.backend.partition_contributions(partition, attribute, baseline)
            )
            seconds.append(time.perf_counter() - started)
        wspan.set("structure_hits", _WORKER_STRUCTURES.hits - before["structure_hits"])
        wspan.set("structure_misses",
                  _WORKER_STRUCTURES.misses - before["structure_misses"])
    stats = _structure_delta(before)
    stats["pair_seconds"] = seconds
    _record_worker_metrics(time.perf_counter() - batch_started, seconds, stats)
    stats["metrics"] = registry_delta(metrics_before, WORKER_REGISTRY.dump())
    stats["pid"] = os.getpid()
    if trace:
        stats["spans"] = local.export()
    return results, stats


def _structure_counters() -> Dict[str, int]:
    return {
        "structure_hits": _WORKER_STRUCTURES.hits,
        "structure_misses": _WORKER_STRUCTURES.misses,
        "shared_structure_hits": _WORKER_STRUCTURES.shared_hits,
        "shared_structure_stores": _WORKER_STRUCTURES.shared_stores,
    }


def _structure_delta(before: Dict[str, int]) -> Dict[str, int]:
    after = _structure_counters()
    return {name: after[name] - before[name] for name in before}


def _record_worker_metrics(batch_seconds: float, pair_seconds,
                           structure_delta: Dict[str, int]) -> None:
    """Fold one job's timings and structure events into :data:`WORKER_REGISTRY`.

    Runs in the worker right before the per-batch registry delta is taken,
    so the shipped delta carries exactly this job's observations.
    """
    _WORKER_BATCH_SECONDS.observe(batch_seconds)
    values = (pair_seconds.values() if isinstance(pair_seconds, dict)
              else pair_seconds)
    for value in values:
        _WORKER_PAIR_SECONDS.observe(value)
    for key, (tier, event) in _STRUCTURE_EVENT_LABELS:
        amount = int(structure_delta.get(key, 0))
        if amount > 0:
            _WORKER_STRUCTURE_EVENTS.labels(tier=tier, event=event).inc(amount)


def _run_queue(token: str, spec_blob: bytes, board_dir: str,
               trace: bool = False, crash_mode: int = 0):
    """One worker's drain loop over a steal board.

    Unlike :func:`_run_batch`, the pair list is not an argument — the
    worker claims indexes from the shared board until it is empty, so fast
    workers absorb the slow workers' tails.  Returns
    ``({global pair index: result}, stats)``; index keys make the results
    order-independent, and per-index timings ship in
    ``stats["pair_seconds"]`` for the session cost history.

    ``crash_mode`` is the crash-injection hook: ``1`` kills the worker
    after its first computed pair (mid-grid loss), ``2`` kills it
    immediately after a *successful steal* — the stolen range is then
    orphaned with its slot marked claimed, which is exactly the case the
    parent's per-pair serial retry must cover.
    """
    state = _worker_state(token, spec_blob)
    _WORKER_STRUCTURES.shared = state.shared
    before = _structure_counters()
    metrics_before = WORKER_REGISTRY.dump()
    with open(Path(board_dir) / "pairs.pkl", "rb") as handle:
        payload = pickle.load(handle)
    board = _BoardClient(board_dir)
    local = Tracer() if trace else NOOP_TRACER
    results: Dict[int, object] = {}
    seconds: Dict[int, float] = {}
    computed = 0
    queue_started = time.perf_counter()
    with local.span("worker.queue", pid=os.getpid()) as wspan:
        while True:
            claim = board.claim_next()
            if claim is None:
                break
            index, stole = claim
            if stole and crash_mode == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            partition, attribute, baseline = payload[index]
            started = time.perf_counter()
            results[index] = state.backend.partition_contributions(
                partition, attribute, baseline)
            seconds[index] = time.perf_counter() - started
            computed += 1
            if crash_mode == 1 and computed >= 1:
                os.kill(os.getpid(), signal.SIGKILL)
            if crash_mode == 2:
                # Throttle the non-thief: on an under-provisioned host the
                # first worker could otherwise drain the whole board before
                # the second one is ever scheduled, leaving no steal for the
                # injection to crash.
                time.sleep(0.02)
        wspan.set("pairs", computed)
    stats = _structure_delta(before)
    stats["pair_seconds"] = seconds
    stats["pairs"] = computed
    _record_worker_metrics(time.perf_counter() - queue_started, seconds, stats)
    stats["metrics"] = registry_delta(metrics_before, WORKER_REGISTRY.dump())
    stats["pid"] = os.getpid()
    if trace:
        stats["spans"] = local.export()
    return results, stats


def _probe_descriptor(descriptor) -> Dict[str, object]:
    """Worker-side diagnostics: the fingerprint work of resolving a descriptor.

    Ships the re-opened frame's fingerprints back together with the
    process-wide :data:`~repro.dataframe.column.FINGERPRINT_STATS` counters
    (reset first), so tests can assert that a worker resolving a stored
    frame performs **zero** full-column hashes — every fingerprint is
    answered by the persisted digests.
    """
    from ...dataframe.column import FINGERPRINT_STATS
    from ...dataframe.frame import DataFrame

    FINGERPRINT_STATS.reset()
    frame = DataFrame.from_descriptor(descriptor)
    payload: Dict[str, object] = {
        "pid": os.getpid(),
        "frame_fingerprint": frame.fingerprint(),
        "column_fingerprints": {
            name: frame[name].fingerprint() for name in frame.column_names
        },
    }
    payload.update(FINGERPRINT_STATS.as_dict())
    return payload
