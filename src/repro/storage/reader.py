"""Opening on-disk datasets as mmap-backed dataframes.

:class:`Dataset` is one opened dataset directory: the parsed manifest, one
read-only memory-mapped buffer per column (mapped lazily, shared by every
frame served) and the shared :class:`~repro.dataframe.column.Column`
objects.  :meth:`Dataset.frame` hands out dataframes that all view the
same physical buffers — opening a dataset twice, or serving it to forty
tenants, costs one copy of the data per process (and, thanks to the page
cache, one per machine).

Columns carry their persisted fingerprints (see
:meth:`~repro.dataframe.column.Column.fingerprint`), so warm explains over
a stored dataset never re-hash a stored column, and dictionary-encoded
columns whose dictionary is their factorization get a pre-seeded
:meth:`~repro.dataframe.column.Column.factorize` cache.

:class:`FrameDescriptor` is the *process-crossing* handle of a stored
frame: a tiny picklable value (store path + manifest version + frame
fingerprint + column subset) that another process turns back into an
mmap-backed frame with :func:`frame_from_descriptor` — the kernel pages
are shared, so shipping a descriptor to a worker costs bytes, not a copy
of the data.  :func:`shared_dataset` backs that with one per-process
:class:`Dataset` handle per path, so every descriptor of one dataset
resolves to the same buffers and column structure caches.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dataframe.column import Column
from ..dataframe.frame import DataFrame
from ..errors import StorageError
from .format import MANIFEST_NAME, ColumnMeta, DatasetManifest
from .mmap import map_buffer, storage_column


@dataclass(frozen=True)
class FrameDescriptor:
    """A cheap, picklable handle to (a column subset of) a stored frame.

    Carries everything a worker process needs to re-open the same data —
    and nothing else: the dataset directory, the manifest format version it
    was described under, the persisted whole-frame fingerprint (so a
    descriptor can never silently resolve against different content), and
    the column names, in frame order.
    """

    path: str
    version: int
    fingerprint: str
    columns: Tuple[str, ...]


class Dataset:
    """One opened dataset directory (mmap-backed, shareable, thread-safe)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        manifest_path = self.path / MANIFEST_NAME
        if not manifest_path.exists():
            raise StorageError(f"no dataset at {self.path} (missing {MANIFEST_NAME})")
        with manifest_path.open("r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as error:
                raise StorageError(f"corrupt manifest at {manifest_path}: {error}") from None
        self.manifest = DatasetManifest.from_json(payload, manifest_path)
        self._buffers: Dict[str, np.ndarray] = {}
        self._columns: Dict[str, Column] = {}
        # Re-entrant: column() maps its buffer while holding the lock.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ public
    @property
    def num_rows(self) -> int:
        return self.manifest.num_rows

    @property
    def column_names(self) -> List[str]:
        return [meta.name for meta in self.manifest.columns]

    @property
    def fingerprint(self) -> str:
        """The frame fingerprint persisted at write time."""
        return self.manifest.fingerprint

    def frame(self) -> DataFrame:
        """A dataframe over the shared mapped buffers.

        Every call returns a fresh :class:`DataFrame` (frames are cheap
        shells) over the *same* column objects, so structure caches
        (argsorts, factorizations) accumulated by one consumer are shared
        by all.  The frame keeps a back-reference to this dataset, which
        :meth:`DataFrame.descriptor` reads.
        """
        frame = DataFrame([self.column(name) for name in self.column_names])
        frame._dataset = self
        return frame

    def descriptor(self, columns: Optional[Sequence[str]] = None) -> FrameDescriptor:
        """The picklable :class:`FrameDescriptor` of (a subset of) this dataset."""
        names = tuple(columns) if columns is not None else tuple(self.column_names)
        for name in names:
            self.manifest.column(name)  # raises StorageError for unknown names
        return FrameDescriptor(
            path=str(self.path.resolve()), version=self.manifest.version,
            fingerprint=self.fingerprint, columns=names,
        )

    def column(self, name: str) -> Column:
        """The shared full-length column ``name`` (mapped on first request)."""
        column = self._columns.get(name)
        if column is None:
            with self._lock:
                column = self._columns.get(name)
                if column is None:
                    meta = self.manifest.column(name)
                    column = storage_column(meta, self._buffer(meta))
                    self._columns[name] = column
        return column

    def verify(self) -> None:
        """Re-hash every column file against its persisted digest.

        Raises :class:`StorageError` on the first mismatch — the integrity
        check for operators who suspect on-disk corruption — and for a
        column that records no digest (format version 1), which cannot be
        checked until the dataset is rewritten.  Reads every byte; not part
        of any hot path.
        """
        for meta in self.manifest.columns:
            if not meta.digest:
                raise StorageError(
                    f"column {meta.name!r} of dataset {self.path} records no digest "
                    f"(format version {self.manifest.version}); rewrite the dataset "
                    "to make it verifiable"
                )
            actual = hashlib.blake2b(self._buffer(meta), digest_size=16).hexdigest()
            if actual != meta.digest:
                raise StorageError(
                    f"column {meta.name!r} does not match its persisted digest "
                    f"(dataset {self.path})"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Dataset({str(self.path)!r}, rows={self.num_rows}, "
                f"columns={len(self.manifest.columns)})")

    # ---------------------------------------------------------------- internals
    def _buffer(self, meta: ColumnMeta) -> np.ndarray:
        buffer = self._buffers.get(meta.name)
        if buffer is None:
            with self._lock:
                buffer = self._buffers.get(meta.name)
                if buffer is None:
                    buffer = map_buffer(self.path / meta.file, meta.dtype, self.num_rows)
                    self._buffers[meta.name] = buffer
        return buffer


def open_dataset(path: str | Path) -> Dataset:
    """Open a dataset directory; see :class:`Dataset`."""
    return Dataset(path)


def read_dataset(path: str | Path) -> DataFrame:
    """Open a dataset and return its mmap-backed dataframe in one call."""
    return open_dataset(path).frame()


# ------------------------------------------------------- descriptor resolution
#: Process-wide cache of descriptor-opened datasets: one Dataset handle (and
#: therefore one set of mapped buffers and shared columns) per path, however
#: many descriptors of it arrive.  Bounded so a long-lived worker that sees
#: many distinct spilled datasets does not accumulate handles forever —
#: evicted handles merely cost a re-open on next use.
_SHARED_DATASETS: "OrderedDict[str, Dataset]" = OrderedDict()
_SHARED_DATASETS_CAP = 32
_SHARED_LOCK = threading.Lock()


def _reinit_shared_lock() -> None:
    """Give a forked child a fresh lock (a thread of the parent may have
    held the old one at fork time, which would deadlock the child)."""
    global _SHARED_LOCK
    _SHARED_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_shared_lock)


def shared_dataset(path: str | Path) -> Dataset:
    """The per-process shared :class:`Dataset` handle of ``path``."""
    key = str(Path(path).resolve())
    with _SHARED_LOCK:
        dataset = _SHARED_DATASETS.get(key)
        if dataset is not None:
            _SHARED_DATASETS.move_to_end(key)
            return dataset
    dataset = Dataset(key)
    with _SHARED_LOCK:
        existing = _SHARED_DATASETS.get(key)
        if existing is not None:
            return existing
        _SHARED_DATASETS[key] = dataset
        while len(_SHARED_DATASETS) > _SHARED_DATASETS_CAP:
            _SHARED_DATASETS.popitem(last=False)
    return dataset


def clear_shared_datasets() -> None:
    """Drop every shared dataset handle (tests; buffers unmap with the GC)."""
    with _SHARED_LOCK:
        _SHARED_DATASETS.clear()


def frame_descriptor(frame: DataFrame, dataset: Dataset) -> Optional[FrameDescriptor]:
    """The descriptor of a frame opened from ``dataset``, if sound.

    ``None`` unless every column of the frame *is* (by identity) the
    dataset's shared column — a frame that merely points at the dataset but
    holds swapped or derived columns would otherwise describe content it
    does not hold.
    """
    names = tuple(frame.column_names)
    stored = set(dataset.column_names)
    for name in names:
        if name not in stored or frame[name] is not dataset.column(name):
            return None
    return dataset.descriptor(names)


def _evict_shared_dataset(path: str) -> None:
    with _SHARED_LOCK:
        _SHARED_DATASETS.pop(path, None)


def frame_from_descriptor(descriptor: FrameDescriptor) -> DataFrame:
    """Resolve a :class:`FrameDescriptor` into an mmap-backed frame.

    The dataset is opened through :func:`shared_dataset` (one handle per
    process) and validated against the descriptor's pinned manifest version
    and frame fingerprint, so a descriptor can never silently serve content
    other than what it was minted for.  A cached handle that fails the
    check may simply predate a rewrite of the dataset: it is evicted and
    the directory re-opened once before the mismatch is declared real —
    otherwise one rewrite would poison every future descriptor of that
    path for the life of the process.  The returned frame carries the
    persisted column fingerprints — a worker re-opening a stored frame
    re-hashes nothing — and points back at the shared dataset.
    """
    dataset = shared_dataset(descriptor.path)
    if (dataset.manifest.version != descriptor.version
            or dataset.fingerprint != descriptor.fingerprint):
        _evict_shared_dataset(str(Path(descriptor.path).resolve()))
        dataset = shared_dataset(descriptor.path)
    if dataset.manifest.version != descriptor.version:
        raise StorageError(
            f"descriptor pins manifest version {descriptor.version}, dataset at "
            f"{descriptor.path} has version {dataset.manifest.version}"
        )
    if dataset.fingerprint != descriptor.fingerprint:
        raise StorageError(
            f"descriptor fingerprint does not match the dataset at {descriptor.path}; "
            "the dataset was rewritten since the descriptor was minted"
        )
    frame = DataFrame([dataset.column(name) for name in descriptor.columns])
    frame._dataset = dataset
    return frame
