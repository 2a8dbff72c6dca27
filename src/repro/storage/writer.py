"""Writing dataframes into the on-disk columnar dataset format.

:func:`write_dataset` lays a :class:`~repro.dataframe.frame.DataFrame`
out as a dataset directory (see :mod:`repro.storage.format`): numeric and
boolean columns as raw little-endian buffers, categorical columns as
``int64`` dictionary codes plus a typed UTF-8 dictionary in the manifest,
the content fingerprints — per column and for the whole frame — that make
warm re-opens and warm re-fingerprints free, and one digest per column
file for :meth:`~repro.storage.reader.Dataset.verify`.

:func:`csv_to_dataset` is the one-shot CSV → dataset converter.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid
from pathlib import Path
from typing import List, Tuple

import numpy as np

from ..dataframe.column import Column
from ..dataframe.frame import DataFrame
from ..dataframe.io import read_csv
from ..errors import StorageError
from .format import (
    CODES_DTYPE,
    ENCODING_DICT,
    ENCODING_RAW,
    MANIFEST_NAME,
    ColumnMeta,
    DatasetManifest,
    binary_header,
)


def write_dataset(frame: DataFrame, path: str | Path, overwrite: bool = False) -> Path:
    """Write ``frame`` as a dataset directory at ``path`` and return it.

    The write is atomic at the directory level: everything is staged into a
    sibling temporary directory first and moved into place last, so a
    crashed write never leaves a half-readable dataset behind.  The staging
    directory is unique per writer (pid + random suffix), so even two
    unlocked writers racing on one path can never interleave files — each
    completes its own staging and the last rename wins whole.
    """
    path = Path(path)
    if path.exists():
        if not overwrite:
            raise StorageError(f"dataset directory already exists: {path}")

    _sweep_stale_staging(path)
    staging = path.parent / f".{path.name}.staging-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    staging.mkdir(parents=True)
    try:
        columns: List[ColumnMeta] = []
        for index, column in enumerate(frame.columns()):
            file_name = f"c{index}.bin"
            meta, buffer = _encode_column(column, file_name)
            meta.digest = _write_buffer(staging / file_name, buffer)
            columns.append(meta)
        manifest = DatasetManifest(
            num_rows=frame.num_rows, fingerprint=frame.fingerprint(), columns=columns,
        )
        with (staging / MANIFEST_NAME).open("w", encoding="utf-8") as handle:
            json.dump(manifest.to_json(), handle)
        if path.exists():
            shutil.rmtree(path)
        staging.replace(path)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return path


def csv_to_dataset(csv_path: str | Path, dataset_path: str | Path,
                   overwrite: bool = False, **read_csv_kwargs) -> Path:
    """One-shot CSV → columnar dataset conversion.

    Loads the CSV through the vectorised :func:`repro.dataframe.read_csv`
    (keyword arguments — ``delimiter``, ``numeric_columns``, ``max_rows`` —
    pass straight through) and writes the result with :func:`write_dataset`.
    """
    frame = read_csv(csv_path, **read_csv_kwargs)
    return write_dataset(frame, dataset_path, overwrite=overwrite)


#: A staging directory older than this is an orphan of a hard-crashed
#: writer (live writes finish in seconds-to-minutes) and is reclaimed by
#: the next write of the same dataset path.
STAGING_ORPHAN_AGE = 3600.0


def _sweep_stale_staging(path: Path) -> None:
    """Reclaim orphaned staging directories of ``path``.

    Staging names are unique per writer, so a crashed (SIGKILLed) writer's
    ``except`` cleanup never ran and its full staged copy would otherwise
    leak forever.  Only directories older than :data:`STAGING_ORPHAN_AGE`
    are removed — a *live* concurrent writer's staging is never touched.
    """
    now = time.time()
    for orphan in path.parent.glob(f".{path.name}.staging*"):
        try:
            if now - orphan.stat().st_mtime > STAGING_ORPHAN_AGE:
                shutil.rmtree(orphan, ignore_errors=True)
        except OSError:
            continue


# ------------------------------------------------------------------ internals
def _write_buffer(path: Path, array: np.ndarray) -> str:
    """Write one column file; returns the blake2b digest of its value bytes."""
    data = np.ascontiguousarray(array).tobytes()
    with path.open("wb") as handle:
        handle.write(binary_header())
        handle.write(data)
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _encode_column(column: Column, file_name: str) -> Tuple[ColumnMeta, np.ndarray]:
    if column.values.dtype.kind in "OUS":
        codes, dictionary, is_factorization = _dictionary_encode(column)
        meta = ColumnMeta(
            name=column.name, kind=column.kind, encoding=ENCODING_DICT,
            dtype=CODES_DTYPE, file=file_name, fingerprint=column.fingerprint(),
            dictionary=dictionary, dictionary_is_factorization=is_factorization,
        )
        return meta, codes
    array = np.ascontiguousarray(column.values)
    if array.dtype.byteorder == ">":
        array = array.astype(array.dtype.newbyteorder("<"))
    meta = ColumnMeta(
        name=column.name, kind=column.kind, encoding=ENCODING_RAW,
        dtype=array.dtype.str, file=file_name, fingerprint=column.fingerprint(),
    )
    return meta, array


def _dictionary_encode(column: Column) -> Tuple[np.ndarray, List, bool]:
    """Codes + dictionary of a categorical column, preserving exact values.

    The fast path reuses :meth:`Column.factorize` — faithful whenever every
    present value is a string (the factorization renders values through
    ``str()``, which is the identity there) and self-describing for the
    reader (the dictionary IS the sorted factorization).  Mixed-type object
    columns fall back to an order-preserving typed dictionary so that e.g.
    ``5`` and ``"5"`` — which factorize to the same string — keep their
    distinct codes and exact types; so do strings with trailing NULs, which
    the factorization's fixed-width unicode rendering would silently strip.
    """
    values = column.values
    null = column.null_mask()
    all_strings = True
    for value in values[~null]:
        if not isinstance(value, str) or value.endswith("\x00"):
            all_strings = False
            break
    if all_strings:
        codes, uniques = column.factorize()
        return np.ascontiguousarray(codes, dtype=np.dtype(CODES_DTYPE)), list(uniques), True

    mapping = {}
    dictionary: List = []
    codes = np.full(len(column), -1, dtype=np.dtype(CODES_DTYPE))
    for index, value in enumerate(values):
        if null[index]:
            continue
        # Keys are (type, value) so 1, 1.0, True and "1" keep distinct
        # codes; floats key by repr so NaN (which is != itself) still
        # deduplicates.
        key = (type(value).__name__, repr(value) if isinstance(value, float) else value)
        code = mapping.get(key)
        if code is None:
            code = len(dictionary)
            mapping[key] = code
            dictionary.append(value)
        codes[index] = code
    return codes, dictionary, False
