"""Memory-mapped, read-only column buffers.

The read side of the storage format: every binary column file is mapped
read-only exactly once per :class:`~repro.storage.reader.Dataset` (the
operating system shares the pages across every frame, tenant, and thread
in the process), and :func:`storage_column` turns a mapped buffer into a
:class:`~repro.dataframe.column.Column`:

* ``raw`` columns wrap the mmap slice directly — zero copies, no page is
  faulted in until a computation touches it;
* ``dict`` columns materialise lazily: the first ``.values`` access decodes
  the mapped codes through the dictionary into an object array which is
  immediately frozen (``writeable = False``).  The codes are range-checked
  once when the column is built, so a corrupt code raises
  :class:`~repro.errors.StorageError` instead of decoding to a wrong value.

Read-only buffers are the dirty-tracking story behind persisted
fingerprints: an in-place write to a mapped or materialised buffer raises,
so the content provably matches what the writer hashed, and
``Column.fingerprint()`` can return the persisted digest without touching
a single page.  Mutation-hungry callers get a writable copy via
``column.copy()`` — a plain in-memory column whose edits never leak back.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

import numpy as np

from ..dataframe.column import Column
from ..errors import StorageError
from .format import (
    ENCODING_DICT,
    ENCODING_RAW,
    HEADER_SIZE,
    ColumnMeta,
    check_binary_header,
)


def map_buffer(path: Path, dtype: str, length: int) -> np.ndarray:
    """Map one binary column file read-only; returns a 1-D array view.

    The 16-byte header is validated eagerly (it is one page anyway); the
    value region is exposed as a read-only ``np.memmap`` starting at the
    header boundary.  Zero-length columns return an ordinary empty array —
    there is nothing to map.
    """
    path = Path(path)
    if not path.exists():
        raise StorageError(f"column file missing: {path}")
    with path.open("rb") as handle:
        check_binary_header(handle.read(HEADER_SIZE), path)
    resolved = np.dtype(dtype)
    if length == 0:
        empty = np.empty(0, dtype=resolved)
        empty.flags.writeable = False
        return empty
    expected = HEADER_SIZE + length * resolved.itemsize
    actual = path.stat().st_size
    if actual != expected:
        raise StorageError(
            f"{path} holds {actual} bytes, manifest expects {expected} "
            f"({length} x {resolved.itemsize} + {HEADER_SIZE}-byte header)"
        )
    return np.memmap(path, dtype=resolved, mode="r", offset=HEADER_SIZE, shape=(length,))


def decode_dictionary_values(codes: np.ndarray, dictionary: List) -> np.ndarray:
    """Materialise dictionary codes into a frozen object array.

    Vectorised: the dictionary (plus a trailing ``None`` slot for missing
    codes) is turned into an object array and fancy-indexed by the codes.
    The result is frozen so edits cannot invalidate persisted fingerprints.
    """
    lookup = np.empty(len(dictionary) + 1, dtype=object)
    for index, value in enumerate(dictionary):
        lookup[index] = value
    lookup[len(dictionary)] = None
    safe_codes = np.where(codes >= 0, codes, len(dictionary))
    values = lookup[safe_codes]
    values.flags.writeable = False
    return values


def storage_column(meta: ColumnMeta, buffer: np.ndarray) -> Column:
    """Build the column for ``meta`` over its mapped buffer.

    The column carries ``meta.fingerprint`` as its persisted fingerprint.
    A ``dict`` column's codes must all lie in ``[-1, len(dictionary))``;
    one min/max pass over the mapped codes checks that without decoding a
    value, because both ``.values`` and the seeded factorization trust them.
    """
    if meta.encoding == ENCODING_RAW:
        return Column.from_storage(
            meta.name, meta.kind, len(buffer),
            values=buffer, fingerprint=meta.fingerprint,
        )
    if meta.encoding != ENCODING_DICT:
        raise StorageError(f"unknown column encoding {meta.encoding!r}")

    dictionary = meta.dictionary or []
    if len(buffer) and (buffer.min() < -1 or buffer.max() >= len(dictionary)):
        raise StorageError(
            f"column {meta.name!r} ({getattr(buffer, 'filename', meta.file)}) holds "
            f"dictionary codes outside [-1, {len(dictionary)}); the file is corrupt"
        )
    factorized = None
    if meta.dictionary_is_factorization:
        # The persisted codes ARE Column.factorize()'s codes: seed the cache
        # so warm group-bys/value-counts skip the O(n log n) recomputation.
        factorized = (np.asarray(buffer), list(dictionary))

    def load() -> np.ndarray:
        return decode_dictionary_values(np.asarray(buffer), dictionary)

    return Column.from_storage(
        meta.name, meta.kind, len(buffer),
        loader=load, fingerprint=meta.fingerprint, factorized=factorized,
    )
