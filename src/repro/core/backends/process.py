"""The process-pool contribution backend over shared mmap frames.

The contribution phase evaluates a grid of independent ``(partition,
attribute)`` pairs.  :class:`ProcessBackend` shards that grid over a
``ProcessPoolExecutor``, so the Python-heavy shard mixes — wide grids of
small partitions, mixed-regime KS, exact-rerun fallbacks — run in parallel
instead of serializing on the GIL.

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
join matches, row provenance — lives one level deeper, in one worker-global
:class:`~repro.session.cache.SessionCache` per worker process, bounded by
its store's byte budget.  It is keyed by content fingerprints like the
in-process session cache, so it survives across backend tokens: the *next
step* of a session grouping the same stored frame by the same keys reuses
the structure instead of re-deriving it.  Because every shard runs the
same incremental derivations over the same values, results are keyed by
shard identity and bit-identical to the serial incremental backend
regardless of worker count, batch size, completion order, or which worker
ran what.

Worker loss is survived, not propagated: a batch whose future fails — a
killed child, a broken pool, an unpicklable result — is recomputed serially
in the parent, pair by pair, by the embedded incremental backend, whose
results are bit-identical to what the lost worker would have produced; the
shared pool is discarded so later requests get a fresh one.
"""

from __future__ import annotations

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
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import multiprocessing

from ...errors import StorageError
from ...obs.metrics import REGISTRY, MetricsRegistry, registry_delta
from ...obs.trace import NOOP_TRACER, Tracer, current_tracer
from ...operators.operations import MEASURE_DIVERSITY, MEASURE_EXCEPTIONALITY
from ..interestingness import DiversityMeasure, ExceptionalityMeasure
from ..partition import RowPartition, RowSet
from .base import ContributionBackend, iter_shard_batches, resolve_shard_batch
from .incremental import IncrementalBackend

#: Worker count used when the caller does not pick one explicitly.
DEFAULT_WORKERS = min(4, os.cpu_count() or 1)

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
                 "structure_misses")

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

    def as_dict(self) -> Dict[str, int]:
        return {
            "shards_submitted": self.shards_submitted,
            "shards_completed": self.shards_completed,
            "batches_submitted": self.batches_submitted,
            "serial_retries": self.serial_retries,
            "serial_fallbacks": self.serial_fallbacks,
            "structure_hits": self.structure_hits,
            "structure_misses": self.structure_misses,
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
#: batch, labeled by worker pid once the result lands.
_BATCH_SECONDS = REGISTRY.histogram(
    "repro_process_batch_seconds",
    "Submit-to-result wall time of one process-backend batch, by worker.",
    ("worker",))

#: Worker-process-local registry: each batch records its per-pair compute
#: histogram and structure-cache counters here; a per-batch delta
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
    "Wall time of one batch inside a pool worker.")
_WORKER_STRUCTURE_EVENTS = WORKER_REGISTRY.counter(
    "repro_worker_structure_events_total",
    "Structure-cache events in a pool worker's private LRU.",
    ("tier", "event"))

#: structure-delta key → event label on the worker counter.
_STRUCTURE_EVENT_LABELS = (
    ("structure_hits", "hit"),
    ("structure_misses", "miss"),
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
    label: Optional[str] = None


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
    shard_batch:
        Grid pairs per submitted batch (``FedexConfig.shard_batch``);
        ``None`` uses the automatic policy — see
        :func:`~repro.core.backends.base.resolve_shard_batch`.
    spill_bytes:
        Spill threshold for in-memory inputs (see module docstring);
        ``None`` uses :data:`DEFAULT_SPILL_BYTES`, ``0`` spills everything.
    crash_shards:
        Test hook: the first ``crash_shards`` submitted *batches* SIGKILL
        their worker mid-batch, exercising the crash-recovery path
        deterministically.
    """

    name = "process"

    def __init__(self, step, measure, workers: Optional[int] = None, context=None,
                 shard_batch: Optional[int] = None,
                 spill_bytes: Optional[int] = None,
                 crash_shards: int = 0) -> None:
        super().__init__(step, measure)
        self.workers = int(workers) if workers else DEFAULT_WORKERS
        if self.workers < 1:
            self.workers = 1
        self.shard_batch = shard_batch
        self.spill_bytes = DEFAULT_SPILL_BYTES if spill_bytes is None else int(spill_bytes)
        self._inner = IncrementalBackend(step, measure, context=context)
        self._crash_shards = int(crash_shards)
        #: Worker-side state cache key of this backend instance.
        self._token = uuid.uuid4().hex
        # Values pin the partition to keep its id reserved (a recycled id
        # would alias a different partition); the index selects this pair's
        # slot in the batch future's result list.
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
        # Future → (submit perf_counter, pairs in the batch).
        self._batch_meta: Dict[Future, Tuple[float, int]] = {}
        #: Why the backend stayed (or fell back to) serial; None while the
        #: process path is active.  Observability for tests and operators.
        self.fallback_reason: Optional[str] = None
        #: Grid pairs per submitted batch (resolved at prefetch).
        self.batch_size: Optional[int] = None
        self.shards_submitted = 0
        self.shards_completed = 0
        self.batches_submitted = 0
        self.serial_retries = 0
        self.structure_hits = 0
        self.structure_misses = 0

    # ------------------------------------------------------------------ public
    def prefetch(self, grid: Sequence[Tuple[RowPartition, str]],
                 baselines: Dict[str, float]) -> None:
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
            self.batch_size = resolve_shard_batch(self.shard_batch, len(pending),
                                                  self.workers)
            pspan.set("batch_size", self.batch_size)
            traced = tracer.enabled
            crash_left = self._crash_shards
            for batch in iter_shard_batches(pending, self.batch_size):
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
                self._batch_meta[future] = (time.perf_counter(), len(batch))
                for index, (partition, attribute) in enumerate(batch):
                    self._futures[(id(partition), attribute)] = (partition, future, index)
                self.batches_submitted += 1
                PROCESS_STATS.batches_submitted += 1
                self.shards_submitted += len(batch)
                PROCESS_STATS.shards_submitted += len(batch)
            pspan.set("batches", self.batches_submitted)

    def partition_contributions(self, partition: RowPartition, attribute: str,
                                baseline: float):
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
        """Shard counters + batch size + fallback reason."""
        return {
            "workers": self.workers,
            "shards_submitted": self.shards_submitted,
            "shards_completed": self.shards_completed,
            "batches_submitted": self.batches_submitted,
            "serial_retries": self.serial_retries,
            "structure_hits": self.structure_hits,
            "structure_misses": self.structure_misses,
            "batch_size": self.batch_size,
            "fallback_reason": self.fallback_reason,
        }

    # ---------------------------------------------------------------- internals
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
        self.structure_hits += hits
        self.structure_misses += misses
        PROCESS_STATS.structure_hits += hits
        PROCESS_STATS.structure_misses += misses
        self._merge_worker_metrics(worker_stats)
        meta = self._batch_meta.pop(future, None)
        if meta is not None:
            _BATCH_SECONDS.labels(
                worker=str(worker_stats.get("pid", "?"))
            ).observe(time.perf_counter() - meta[0])
        if self._tracer.enabled and meta is not None:
            submitted_pc, pairs = meta
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
        spec = StepSpec(
            descriptors=tuple(descriptors), operation=self.step.operation,
            measure=measure_name, label=getattr(self.step, "label", None),
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
            if total <= DEFAULT_SPILL_BUDGET_BYTES or len(_SPILLED) <= 1:
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
    by :data:`DEFAULT_SPILL_BUDGET_BYTES`; the temp root lives until process
    exit, and workers that still hold an evicted dataset's mmap keep
    reading after the unlink (POSIX semantics).
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
    can only re-initialise *this* package's locks.  Everything shipped to
    workers is top-level and picklable, so every method computes the same
    results, just with different cold starts.
    """
    available = multiprocessing.get_all_start_methods()
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
    global _SPILL_LOCK, _POOL_LOCK
    _SPILL_LOCK = threading.Lock()
    _POOL_LOCK = threading.Lock()
    _POOLS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_after_fork)


# ------------------------------------------------------------- worker side
#: The per-worker-process structure cache: one
#: :class:`~repro.session.cache.SessionCache` that outlives every
#: :class:`_WorkerState` (backend tokens change per step), bounded by its
#: store's byte budget.  Built on first use inside the worker, so a forked
#: worker never inherits a parent's store locks.
_WORKER_CACHE = None


def _worker_cache():
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        # Imported here: repro.session imports the engine, which imports
        # this module.
        from ...session.cache import SessionCache

        _WORKER_CACHE = SessionCache()
    return _WORKER_CACHE


class _WorkerState:
    """One rebuilt step + embedded incremental backend inside a worker."""

    __slots__ = ("step", "backend")

    def __init__(self, step, backend) -> None:
        self.step = step
        self.backend = backend


#: Per-worker-process cache of rebuilt states, keyed by backend token.  The
#: cap bounds a worker serving many steps: an evicted state costs one
#: rebuild (the mmap buffers themselves stay cached in shared_dataset, and
#: the heavy derived structure stays cached in _WORKER_CACHE).
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
    backend = IncrementalBackend(step, measure, context=_worker_cache())
    return _WorkerState(step, backend)


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
        stats = _structure_delta(before)
        wspan.set("structure_hits", stats["structure_hits"])
        wspan.set("structure_misses", stats["structure_misses"])
    _record_worker_metrics(time.perf_counter() - batch_started, seconds, stats)
    stats["metrics"] = registry_delta(metrics_before, WORKER_REGISTRY.dump())
    stats["pid"] = os.getpid()
    if trace:
        stats["spans"] = local.export()
    return results, stats


def _structure_counters() -> Dict[str, int]:
    stats = _worker_cache().stats
    return {
        "structure_hits": stats.structure_hits,
        "structure_misses": stats.structure_misses,
    }


def _structure_delta(before: Dict[str, int]) -> Dict[str, int]:
    after = _structure_counters()
    return {name: after[name] - before[name] for name in before}


def _record_worker_metrics(batch_seconds: float, pair_seconds: List[float],
                           structure_delta: Dict[str, int]) -> None:
    """Fold one batch's timings and structure events into :data:`WORKER_REGISTRY`.

    Runs in the worker right before the per-batch registry delta is taken,
    so the shipped delta carries exactly this batch's observations.
    """
    _WORKER_BATCH_SECONDS.observe(batch_seconds)
    for value in pair_seconds:
        _WORKER_PAIR_SECONDS.observe(value)
    for key, event in _STRUCTURE_EVENT_LABELS:
        amount = int(structure_delta.get(key, 0))
        if amount > 0:
            _WORKER_STRUCTURE_EVENTS.labels(tier="local", event=event).inc(amount)


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
