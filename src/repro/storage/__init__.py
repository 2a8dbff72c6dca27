"""Columnar dataset storage with mmap-backed frames.

The subsystem between raw files and the serving layer::

    from repro.storage import write_dataset, read_dataset, DatasetStore

    write_dataset(frame, "data/spotify")          # one file per column
    frame = read_dataset("data/spotify")          # mmap-backed, lazy, read-only

    store = DatasetStore("data")                  # named datasets
    store.put("spotify", frame)
    warm = store.open("spotify")                  # shared buffers per process

Highlights:

* **Format** (:mod:`~repro.storage.format`) — raw little-endian numeric
  buffers, dictionary-encoded categoricals, a versioned JSON manifest with
  persisted fingerprints and one blake2b digest per column file (checked by
  ``Dataset.verify()``).
* **Mmap frames** (:mod:`~repro.storage.mmap`) — numeric buffers map
  read-only and categoricals materialise lazily; read-only buffers make the
  persisted per-column fingerprints trustworthy, so
  ``Column.fingerprint()`` on a stored column never re-hashes the values.
  Filters on a stored frame evaluate like on any other frame.
* **Store** (:mod:`~repro.storage.store`) — named datasets served as
  shared mmap frames; the registry and the explanation service build on it.
  ``put`` is safe under concurrent writers: a ``.lock`` file taken with
  ``O_CREAT|O_EXCL`` (with stale-lock takeover) serializes them.
* **Descriptors** (:class:`~repro.storage.reader.FrameDescriptor`) — tiny
  picklable handles (path + manifest version + fingerprint + columns) that
  other *processes* resolve back into mmap frames over the same pages; the
  process-pool contribution backend ships these instead of data.
"""

from .format import FORMAT_VERSION, DatasetManifest
from .mmap import map_buffer
from .reader import (
    Dataset,
    FrameDescriptor,
    frame_from_descriptor,
    open_dataset,
    read_dataset,
    shared_dataset,
)
from .store import DatasetStore
from .writer import csv_to_dataset, write_dataset

__all__ = [
    "FORMAT_VERSION",
    "Dataset",
    "DatasetManifest",
    "DatasetStore",
    "FrameDescriptor",
    "csv_to_dataset",
    "frame_from_descriptor",
    "map_buffer",
    "open_dataset",
    "read_dataset",
    "shared_dataset",
    "write_dataset",
]
