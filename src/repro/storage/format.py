"""The on-disk columnar dataset format.

A *dataset* is a directory::

    <name>/
        manifest.json      schema + persisted fingerprints and digests
                           (versioned, magic-tagged)
        c0.bin, c1.bin …   one binary buffer per column: a 16-byte header
                           (8-byte magic + little-endian uint32 version +
                           4 reserved bytes) followed by the raw values

Columns are stored in one of two encodings:

* ``raw`` — numeric / boolean columns: the values as one contiguous
  little-endian buffer in their original dtype (float64/int64/bool).  The
  buffer is memory-mappable: opening the dataset maps it read-only and no
  byte is read until a computation touches it.
* ``dict`` — categorical (object) columns: ``int64`` dictionary codes in
  the binary file (``-1`` = missing) plus the dictionary itself in the
  manifest as UTF-8 JSON.  Dictionary entries are *typed* (``["s", …]`` /
  ``["i", …]`` / ``["f", …]`` / ``["b", …]``) so non-string values survive
  the round trip exactly; non-finite floats are spelled out ("nan",
  "inf", "-inf").  When the dictionary happens to be the column's sorted
  factorization (every value a string — the common case), the reader seeds
  :meth:`Column.factorize` straight from the persisted codes.

Each column records two hashes.  ``fingerprint`` is the full
:meth:`Column.fingerprint` computed at write time; because the mapped
buffers are read-only, the reader hands it back without ever re-hashing
the values.  ``digest`` is the blake2b-128 digest of the column file's
value bytes (everything after the header), which
:meth:`~repro.storage.reader.Dataset.verify` re-hashes to detect on-disk
corruption.

Version 1 manifests also carried a row-chunk geometry and per-chunk
statistics, and no ``digest``.  The reader still opens them and ignores
both keys; only ``verify()`` refuses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, Optional

from ..errors import StorageError

#: Magic tag of every binary column file (8 bytes).
MAGIC = b"RPRDSET1"

#: Version of the format written by this code (the reader also opens 1).
FORMAT_VERSION = 2

#: Size of the binary file header: magic (8) + version (4, LE) + reserved (4).
HEADER_SIZE = 16

#: Column encodings.
ENCODING_RAW = "raw"
ENCODING_DICT = "dict"

#: File name of the JSON manifest inside a dataset directory.
MANIFEST_NAME = "manifest.json"

#: dtype of the dictionary codes of a ``dict``-encoded column.
CODES_DTYPE = "<i8"


def binary_header(version: int = FORMAT_VERSION) -> bytes:
    """The 16-byte header prefixed to every binary column file."""
    return MAGIC + int(version).to_bytes(4, "little") + b"\x00\x00\x00\x00"


def check_binary_header(header: bytes, path) -> int:
    """Validate a binary file header; returns the version it declares."""
    if len(header) < HEADER_SIZE or header[:8] != MAGIC:
        raise StorageError(f"{path} is not a repro.storage column file (bad magic)")
    version = int.from_bytes(header[8:12], "little")
    if version > FORMAT_VERSION:
        raise StorageError(
            f"{path} uses format version {version}, this reader supports <= {FORMAT_VERSION}"
        )
    return version


# ------------------------------------------------------------- scalar coding
def encode_scalar(value: Any) -> Optional[list]:
    """Encode one dictionary value as a JSON-safe typed pair."""
    if value is None:
        return None
    if isinstance(value, bool):
        return ["b", value]
    if isinstance(value, int):
        return ["i", value]
    if isinstance(value, float):
        if math.isnan(value):
            return ["f", "nan"]
        if math.isinf(value):
            return ["f", "inf" if value > 0 else "-inf"]
        return ["f", value]
    if isinstance(value, str):
        return ["s", value]
    raise StorageError(f"cannot encode dictionary value of type {type(value).__name__}")


def decode_scalar(encoded: Optional[list]) -> Any:
    """Inverse of :func:`encode_scalar`."""
    if encoded is None:
        return None
    tag, payload = encoded
    if tag == "s":
        return str(payload)
    if tag == "i":
        return int(payload)
    if tag == "f":
        return float(payload)
    if tag == "b":
        return bool(payload)
    raise StorageError(f"unknown dictionary value tag {tag!r}")


# ----------------------------------------------------------------- manifest
@dataclass
class ColumnMeta:
    """Manifest entry describing one stored column."""

    name: str
    kind: str
    encoding: str
    #: numpy dtype string of the stored buffer ("<f8", "<i8", "|b1", …);
    #: for ``dict`` encoding this is the codes dtype.
    dtype: str
    file: str
    #: Persisted :meth:`Column.fingerprint` of the whole column.
    fingerprint: str
    #: Dictionary of a ``dict``-encoded column (typed scalars, code order).
    dictionary: Optional[List[Any]] = None
    #: True when the dictionary equals ``Column.factorize()``'s uniques
    #: (all strings, sorted) so the reader can seed the factorization cache.
    dictionary_is_factorization: bool = False
    #: blake2b-128 hex digest of the column file's value bytes; empty for
    #: columns written as format version 1, which recorded none.
    digest: str = ""

    def to_json(self) -> dict:
        payload = {
            "name": self.name, "kind": self.kind, "encoding": self.encoding,
            "dtype": self.dtype, "file": self.file, "fingerprint": self.fingerprint,
            "digest": self.digest,
        }
        if self.encoding == ENCODING_DICT:
            payload["dictionary"] = [encode_scalar(v) for v in self.dictionary or []]
            payload["dictionary_is_factorization"] = self.dictionary_is_factorization
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "ColumnMeta":
        dictionary = None
        if payload.get("encoding") == ENCODING_DICT:
            dictionary = [decode_scalar(v) for v in payload.get("dictionary", [])]
        return cls(
            name=str(payload["name"]), kind=str(payload["kind"]),
            encoding=str(payload["encoding"]), dtype=str(payload["dtype"]),
            file=str(payload["file"]), fingerprint=str(payload["fingerprint"]),
            dictionary=dictionary,
            dictionary_is_factorization=bool(payload.get("dictionary_is_factorization", False)),
            digest=str(payload.get("digest", "")),
        )


@dataclass
class DatasetManifest:
    """The JSON manifest of one dataset directory."""

    num_rows: int
    #: Persisted :meth:`DataFrame.fingerprint` of the whole frame.
    fingerprint: str
    columns: List[ColumnMeta] = field(default_factory=list)
    version: int = FORMAT_VERSION

    def to_json(self) -> dict:
        return {
            "magic": MAGIC.decode("ascii"),
            "version": self.version,
            "num_rows": self.num_rows,
            "fingerprint": self.fingerprint,
            "columns": [column.to_json() for column in self.columns],
        }

    @classmethod
    def from_json(cls, payload: dict, path) -> "DatasetManifest":
        if payload.get("magic") != MAGIC.decode("ascii"):
            raise StorageError(f"{path} is not a repro.storage manifest (bad magic)")
        version = int(payload.get("version", 0))
        if version > FORMAT_VERSION:
            raise StorageError(
                f"{path} uses format version {version}, this reader supports <= {FORMAT_VERSION}"
            )
        return cls(
            num_rows=int(payload["num_rows"]),
            fingerprint=str(payload["fingerprint"]),
            columns=[ColumnMeta.from_json(column) for column in payload.get("columns", [])],
            version=version,
        )

    def column(self, name: str) -> ColumnMeta:
        for meta in self.columns:
            if meta.name == name:
                return meta
        raise StorageError(f"dataset has no column {name!r}")
