"""Round-trip tests of the columnar dataset format (incl. hypothesis)."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storage_testutil import assert_round_trip
from repro.dataframe import DataFrame
from repro.errors import StorageError
from repro.storage import DatasetStore, open_dataset, read_dataset, write_dataset
from repro.storage.format import (
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
    MANIFEST_NAME,
    decode_scalar,
    encode_scalar,
)


@pytest.fixture
def mixed_frame() -> DataFrame:
    return DataFrame({
        "f": np.asarray([1.5, np.nan, -2.0, 0.0, 3.25, np.nan]),
        "i": np.asarray([7, -1, 0, 3, 9, 2], dtype=np.int64),
        "b": np.asarray([True, False, True, True, False, False]),
        "cat": np.asarray(["pop", None, "rock", "", "ünïcode", "pop"], dtype=object),
        "mixed": np.asarray([1, "1", None, 2.5, True, float("nan")], dtype=object),
    })


class TestRoundTrip:
    def test_mixed_frame(self, mixed_frame, tmp_path):
        write_dataset(mixed_frame, tmp_path / "ds")
        assert_round_trip(mixed_frame, read_dataset(tmp_path / "ds"))

    def test_empty_frame(self, tmp_path):
        empty = DataFrame({"x": np.asarray([], dtype=float),
                           "c": np.asarray([], dtype=object)})
        write_dataset(empty, tmp_path / "ds")
        loaded = read_dataset(tmp_path / "ds")
        assert loaded.num_rows == 0
        assert_round_trip(empty, loaded)

    def test_all_null_columns(self, tmp_path):
        frame = DataFrame({
            "f": np.asarray([np.nan, np.nan, np.nan]),
            "c": np.asarray([None, None, None], dtype=object),
        })
        write_dataset(frame, tmp_path / "ds")
        assert_round_trip(frame, read_dataset(tmp_path / "ds"))

    def test_single_row(self, tmp_path):
        frame = DataFrame({"x": np.asarray([4.0]), "c": np.asarray(["only"], dtype=object)})
        write_dataset(frame, tmp_path / "ds")
        assert_round_trip(frame, read_dataset(tmp_path / "ds"))

    def test_trailing_nul_strings_survive(self, tmp_path):
        """Trailing NULs defeat the factorization fast path; values must survive."""
        frame = DataFrame({"c": np.asarray(["a\x00", "a", "b", "a\x00\x00"], dtype=object)})
        write_dataset(frame, tmp_path / "ds")
        loaded = read_dataset(tmp_path / "ds")
        assert loaded["c"].tolist() == frame["c"].tolist()
        assert loaded["c"].fingerprint() == frame["c"].fingerprint()

    def test_unicode_u_dtype_column(self, tmp_path):
        frame = DataFrame({"g": np.asarray(["αβγ", "jazz", "αβγ"])})
        assert frame["g"].is_categorical
        write_dataset(frame, tmp_path / "ds")
        loaded = read_dataset(tmp_path / "ds")
        assert loaded["g"].tolist() == frame["g"].tolist()
        assert loaded["g"].fingerprint() == frame["g"].fingerprint()

    def test_factorize_seeded_from_dictionary(self, mixed_frame, tmp_path):
        write_dataset(mixed_frame, tmp_path / "ds")
        loaded = read_dataset(tmp_path / "ds")
        codes, uniques = loaded["cat"].factorize()
        expect_codes, expect_uniques = mixed_frame["cat"].factorize()
        assert uniques == expect_uniques
        assert np.array_equal(codes, expect_codes)
        # Pre-seeded: available without the values ever being materialised.
        fresh = open_dataset(tmp_path / "ds").column("cat")
        assert fresh._factorized is not None
        assert fresh._data is None

    def test_overwrite_flag(self, mixed_frame, tmp_path):
        write_dataset(mixed_frame, tmp_path / "ds")
        with pytest.raises(StorageError):
            write_dataset(mixed_frame, tmp_path / "ds")
        write_dataset(mixed_frame.head(2), tmp_path / "ds", overwrite=True)
        assert read_dataset(tmp_path / "ds").num_rows == 2

    def test_verify_detects_corruption(self, mixed_frame, tmp_path):
        path = write_dataset(mixed_frame, tmp_path / "ds")
        open_dataset(path).verify()
        # One flipped byte in the raw "i" column, then in the dict "cat"
        # column, where the flip keeps every code a valid dictionary index.
        for file_name, offset in [("c1.bin", -1), ("c3.bin", HEADER_SIZE)]:
            target = path / file_name
            pristine = target.read_bytes()
            blob = bytearray(pristine)
            blob[offset] ^= 0x01
            target.write_bytes(bytes(blob))
            with pytest.raises(StorageError, match="digest"):
                open_dataset(path).verify()
            target.write_bytes(pristine)
        open_dataset(path).verify()


def _rewrite_as_version_1(path) -> None:
    """Give a fresh dataset the exact layout the version-1 writer produced.

    Version 1 manifests put the row-chunk size at the top level and a list
    of per-chunk statistics on every column, and recorded no digest; its
    column files declared version 1 in their headers.  A table this small
    is one chunk, whose statistics the old writer computed as below.
    """
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    columns = []
    for column in manifest["columns"]:
        blob = (path / column["file"]).read_bytes()
        (path / column["file"]).write_bytes(
            blob[:8] + (1).to_bytes(4, "little") + blob[12:]
        )
        values = np.frombuffer(blob[HEADER_SIZE:], dtype=np.dtype(column["dtype"]))
        if column["encoding"] == "dict":
            missing = values < 0
        elif values.dtype.kind == "f":
            missing = np.isnan(values)
        else:
            missing = np.zeros(len(values), dtype=bool)
        present = values[~missing]
        chunk = {
            "rows": len(values), "nulls": int(missing.sum()),
            "distinct": int(np.unique(present).size),
            "min": encode_scalar(present.min().item()) if present.size else None,
            "max": encode_scalar(present.max().item()) if present.size else None,
            "fingerprint": column["digest"],
        }
        old = {key: column[key] for key in
               ("name", "kind", "encoding", "dtype", "file", "fingerprint")}
        old["chunks"] = [chunk] if len(values) else []
        for key in ("dictionary", "dictionary_is_factorization"):
            if key in column:
                old[key] = column[key]
        columns.append(old)
    (path / MANIFEST_NAME).write_text(json.dumps({
        "magic": manifest["magic"], "version": 1, "num_rows": manifest["num_rows"],
        "chunk_rows": 65_536, "fingerprint": manifest["fingerprint"],
        "columns": columns,
    }))


class TestVersion1Stores:
    def test_version_1_store_serves_equal_frames_and_refuses_verify(
            self, mixed_frame, tmp_path):
        DatasetStore(tmp_path).put("songs", mixed_frame)
        _rewrite_as_version_1(tmp_path / "songs")
        store = DatasetStore(tmp_path)
        opened = store.open("songs")
        assert store.dataset("songs").manifest.version == 1
        assert_round_trip(mixed_frame, opened)
        descriptor = opened.descriptor()
        assert descriptor.version == 1
        assert_round_trip(mixed_frame, DataFrame.from_descriptor(descriptor))
        with pytest.raises(StorageError, match="no digest.*rewrite"):
            store.dataset("songs").verify()


class TestFormatValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StorageError, match="missing"):
            open_dataset(tmp_path)

    def test_bad_manifest_magic(self, mixed_frame, tmp_path):
        path = write_dataset(mixed_frame, tmp_path / "ds")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["magic"] = "NOTADATA"
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="magic"):
            open_dataset(path)

    def test_future_version_rejected(self, mixed_frame, tmp_path):
        path = write_dataset(mixed_frame, tmp_path / "ds")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["version"] = FORMAT_VERSION + 1
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="version"):
            open_dataset(path)

    def test_bad_binary_magic(self, mixed_frame, tmp_path):
        path = write_dataset(mixed_frame, tmp_path / "ds")
        target = path / "c0.bin"
        blob = bytearray(target.read_bytes())
        blob[:8] = b"XXXXXXXX"
        target.write_bytes(bytes(blob))
        with pytest.raises(StorageError, match="magic"):
            read_dataset(path)["f"].values

    def test_truncated_binary_rejected(self, mixed_frame, tmp_path):
        path = write_dataset(mixed_frame, tmp_path / "ds")
        target = path / "c0.bin"
        target.write_bytes(target.read_bytes()[:HEADER_SIZE + 8])
        with pytest.raises(StorageError, match="bytes"):
            read_dataset(path)["f"].values

    def test_header_layout(self, mixed_frame, tmp_path):
        path = write_dataset(mixed_frame, tmp_path / "ds")
        header = (path / "c0.bin").read_bytes()[:HEADER_SIZE]
        assert header[:8] == MAGIC
        assert int.from_bytes(header[8:12], "little") == FORMAT_VERSION

    @pytest.mark.parametrize("code", [2**56, -5], ids=["too-large", "below-missing"])
    def test_corrupt_dictionary_code_raises(self, tmp_path, code):
        """A code outside [-1, len(dictionary)) is corruption, never a value."""
        frame = DataFrame({"cat": np.asarray(["a", "b", "a", None], dtype=object)})
        path = write_dataset(frame, tmp_path / "ds")
        target = path / "c0.bin"
        blob = bytearray(target.read_bytes())
        blob[HEADER_SIZE:HEADER_SIZE + 8] = code.to_bytes(8, "little", signed=True)
        target.write_bytes(bytes(blob))
        with pytest.raises(StorageError, match="'cat'.*c0.bin"):
            open_dataset(path).column("cat").values
        with pytest.raises(StorageError, match="'cat'.*c0.bin"):
            open_dataset(path).column("cat").factorize()

    def test_scalar_coding_round_trip(self):
        for value in [None, "s", "", 3, -1, 2.5, float("nan"), float("inf"),
                      float("-inf"), True, False]:
            decoded = decode_scalar(encode_scalar(value))
            if isinstance(value, float) and np.isnan(value):
                assert np.isnan(decoded)
            else:
                assert decoded == value and type(decoded) is type(value)


# ---------------------------------------------------------------- hypothesis
_text = st.text(max_size=8)
_cat_value = st.one_of(st.none(), _text, st.integers(-5, 5), st.booleans())
_float_value = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64), st.just(np.nan)
)


@st.composite
def frames(draw) -> DataFrame:
    n_rows = draw(st.integers(min_value=0, max_value=12))
    columns = {}
    columns["num"] = np.asarray(
        draw(st.lists(_float_value, min_size=n_rows, max_size=n_rows)), dtype=float
    )
    columns["int"] = np.asarray(
        draw(st.lists(st.integers(-100, 100), min_size=n_rows, max_size=n_rows)),
        dtype=np.int64,
    )
    columns["cat"] = np.asarray(
        draw(st.lists(_cat_value, min_size=n_rows, max_size=n_rows)), dtype=object
    )
    return DataFrame(columns)


class TestPropertyRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(frame=frames())
    def test_round_trip(self, frame, tmp_path_factory):
        target = tmp_path_factory.mktemp("storage") / "ds"
        write_dataset(frame, target)
        assert_round_trip(frame, read_dataset(target))
