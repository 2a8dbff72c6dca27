"""The out-of-process shared cache tier of a replica fleet.

N replica processes over one :class:`~repro.storage.store.DatasetStore`
share mmap pages for the *data*; this module shares the *computed* state:
a disk-backed segment that every :class:`~repro.session.store.CacheStore`
built with ``tier=`` writes its reports and scores through to, so an
explanation computed by one replica is a file read (not a recomputation)
for every other replica — and for a replica started later, which is how a
restarted process comes up warm.

Layout::

    <root>/<epoch>/<layer>-<digest>.pkl     one file per entry
    <root>/<epoch>/...

* **Entries** are individually pickled ``{"value", "nbytes"}`` documents,
  written atomically (temp file + rename) so a reader can never observe a
  torn entry; the digest is a blake2b of the pickled ``(layer, key)``
  composite.  Unpicklable values (environment-token-keyed reports hold
  process-local identity on purpose) are skipped, never fatal.
* **Epochs are the invalidation mechanism.**  The epoch directory name is
  a hash over the dataset store's manifest versions and frame
  fingerprints — exactly the tokens
  :class:`~repro.storage.reader.FrameDescriptor` already pins.  Rewriting
  any dataset changes its manifest version, which changes the epoch
  token, which sends every replica to a fresh (empty) epoch directory:
  cross-replica invalidation without a coordination channel.  Stale
  epochs are garbage-collected by :meth:`sweep`.
* **The tier is an L2, not a store of record.**  ``CacheStore`` consults
  it only on local misses and promotes hits into local memory; every
  tier failure (missing file, corrupt pickle, dead disk) degrades to a
  plain miss.

Wire it up by constructing the replica's store with ``tier=``::

    tier = SharedCacheTier(segment_dir, dataset_store=dataset_store)
    store = CacheStore(budget_bytes=..., tier=tier)
    service = ExplanationService(store=store, dataset_store=dataset_store)
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

__all__ = ["SharedCacheTier", "DEFAULT_TIER_LAYERS"]

#: Layers promoted into the shared segment by default.  Reports and
#: phase-1 scores are the expensive-to-recompute, cheap-to-ship artefacts;
#: partitions/structures/columns pin large index arrays that the local
#: stores rebuild quickly from the shared mmap pages anyway.
DEFAULT_TIER_LAYERS = ("reports", "scores")

#: Entries larger than this are not shared (pickling and shipping them
#: costs more than recomputing on the other replica).
DEFAULT_MAX_VALUE_BYTES = 32 * 1024 * 1024

#: How long a computed epoch token is trusted before the dataset-store
#: manifests are re-read.  Refreshing reads one small JSON file per
#: dataset — cheap, but not per-lookup cheap.
DEFAULT_EPOCH_TTL_S = 5.0


class SharedCacheTier:
    """Disk-backed shared cache segment with manifest-version epoch keys."""

    def __init__(self, root: str | Path, dataset_store=None,
                 layers: Sequence[str] = DEFAULT_TIER_LAYERS,
                 max_value_bytes: int = DEFAULT_MAX_VALUE_BYTES,
                 epoch_ttl_s: float = DEFAULT_EPOCH_TTL_S) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.dataset_store = dataset_store
        self.layers = tuple(layers)
        self.max_value_bytes = int(max_value_bytes)
        self.epoch_ttl_s = float(epoch_ttl_s)
        self._lock = threading.Lock()
        self._epoch: Optional[str] = None
        self._epoch_read_at = 0.0
        self.stats: Dict[str, int] = {
            "hits": 0, "misses": 0, "offers": 0, "skipped": 0,
            "epoch_refreshes": 0, "swept": 0,
        }

    # ------------------------------------------------------------------ epochs
    def epoch_token(self) -> str:
        """The current epoch (cached up to ``epoch_ttl_s``; see :meth:`refresh_epoch`)."""
        with self._lock:
            fresh_enough = (self._epoch is not None and
                            time.monotonic() - self._epoch_read_at < self.epoch_ttl_s)
            if fresh_enough:
                return self._epoch
        return self.refresh_epoch()

    def refresh_epoch(self) -> str:
        """Recompute the epoch from the dataset store's manifests, now.

        The token hashes every dataset's ``(name, manifest version, frame
        fingerprint)`` — the same tokens frame descriptors pin — so any
        rewrite of any dataset moves every replica that refreshes to a new
        epoch directory.  Without a dataset store the tier is static
        (nothing it caches over can change underneath it).
        """
        if self.dataset_store is None:
            token = "static"
        else:
            digest = hashlib.blake2b(digest_size=16)
            # version_tokens() reads manifests fresh from disk — a rewrite
            # by *another replica's* process must move this one's epoch too.
            for name, version, fingerprint in self.dataset_store.version_tokens():
                digest.update(f"{name}:{version}:{fingerprint}\n".encode())
            token = f"epoch-{digest.hexdigest()}"
        with self._lock:
            self._epoch = token
            self._epoch_read_at = time.monotonic()
            self.stats["epoch_refreshes"] += 1
        return token

    # ----------------------------------------------------------------- entries
    def lookup(self, layer: str, key: object) -> Optional[Tuple[object, int]]:
        """``(value, nbytes)`` of one shared entry, or ``None``.

        The ``CacheStore`` L2 hook: called on every local miss, so the
        non-served-layer rejection must be the first (and cheapest) check.
        """
        if layer not in self.layers:
            return None
        path = self._entry_path(layer, key)
        if path is None:
            return None
        try:
            with path.open("rb") as handle:
                document = pickle.load(handle)
            value, nbytes = document["value"], int(document["nbytes"])
        except Exception:
            with self._lock:
                self.stats["misses"] += 1
            return None
        with self._lock:
            self.stats["hits"] += 1
        return value, nbytes

    def offer(self, layer: str, key: object, value: object,
              nbytes: Optional[int] = None) -> bool:
        """Share one entry with the fleet; returns whether it was written.

        Skips non-served layers, oversized values, unpicklable values, and
        entries already present (first writer wins — the values are
        deterministic recomputations of each other anyway).
        """
        if layer not in self.layers:
            return False
        if nbytes is not None and nbytes > self.max_value_bytes:
            with self._lock:
                self.stats["skipped"] += 1
            return False
        path = self._entry_path(layer, key)
        if path is None or path.exists():
            return False
        try:
            blob = pickle.dumps({"value": value, "nbytes": int(nbytes or 0)},
                                protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            with self._lock:
                self.stats["skipped"] += 1
            return False
        if len(blob) > self.max_value_bytes:
            with self._lock:
                self.stats["skipped"] += 1
            return False
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "wb", dir=str(path.parent), prefix=path.name + ".", delete=False)
        try:
            with handle:
                handle.write(blob)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        with self._lock:
            self.stats["offers"] += 1
        return True

    def sweep(self) -> int:
        """Delete stale epoch directories; returns how many were removed."""
        current = self.epoch_token()
        removed = 0
        for child in self.root.iterdir():
            if not child.is_dir() or child.name == current:
                continue
            for entry in child.iterdir():
                try:
                    entry.unlink()
                except OSError:
                    pass
            try:
                child.rmdir()
            except OSError:
                continue
            removed += 1
        with self._lock:
            self.stats["swept"] += removed
        return removed

    def entry_count(self) -> int:
        """Number of entries stored under the current epoch."""
        epoch_dir = self.root / self.epoch_token()
        if not epoch_dir.is_dir():
            return 0
        return sum(1 for path in epoch_dir.iterdir() if path.suffix == ".pkl")

    # --------------------------------------------------------------- internals
    def _entry_path(self, layer: str, key: object) -> Optional[Path]:
        try:
            blob = pickle.dumps((layer, key), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return None
        digest = hashlib.blake2b(blob, digest_size=16).hexdigest()
        return self.root / self.epoch_token() / f"{layer}-{digest}.pkl"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SharedCacheTier(root={str(self.root)!r}, "
                f"layers={self.layers}, entries={self.entry_count()})")
