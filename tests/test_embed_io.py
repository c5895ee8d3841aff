import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stilab.embed_io import (
    MAGIC,
    BadMagicError,
    EmbeddingIOError,
    HeaderFormatError,
    TruncatedPayloadError,
    load_embeddings,
    read_records,
    save_embeddings,
)


def mutants(raw: bytes):
    """Strategy: ``raw`` with one byte replaced, one run of decimal digits
    replaced by another number (up to far beyond int64), or a prefix of
    ``raw``."""
    def splice(start: int, end: int, middle: bytes) -> bytes:
        return raw[:start] + middle + raw[end:]

    byte = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)).map(
        lambda change: splice(change[0], change[0] + 1, bytes([change[1]]))
    )
    number = st.tuples(
        st.sampled_from([m.span() for m in re.finditer(rb"[0-9]+", raw)]),
        st.integers(0, 10**30),
    ).map(lambda change: splice(*change[0], str(change[1]).encode()))
    prefix = st.integers(0, len(raw)).map(lambda cut: raw[:cut])
    return st.one_of(byte, number, prefix)


class TestRoundTrips:
    def test_raw_video_and_mixed_order(self, tmp_path):
        rng = np.random.default_rng(2)
        videos = [rng.standard_normal((2, 3, 4)), rng.standard_normal((1, 5, 2))]
        path = save_embeddings(tmp_path / "m.bin", videos)
        loaded = load_embeddings(path)
        assert len(loaded) == 2
        for got, want in zip(loaded, videos):
            assert np.array_equal(got, want)
        layout = MAGIC + b"".join(
            "2 {} {} {}\n".format(*v.shape).encode() + v.astype("<f8").tobytes() for v in videos
        )
        assert path.read_bytes() == layout

    def test_empty_container(self, tmp_path):
        path = save_embeddings(tmp_path / "e.bin", [])
        assert load_embeddings(path) == []


class TestKeep:
    """The records not kept stand as None: the reader seeks past their
    values. Each kept record's sha256 is the one written."""

    VIDEOS = [np.full((1, 2, 3), 1.0), np.full((2, 5, 4), 2.0), np.full((1, 2, 3), 3.0),
              np.full((3, 3, 5), 4.0)]

    @pytest.mark.parametrize("keep", [set(), {0}, {2}, {1, 3}, {0, 1, 2, 3}])
    def test_kept_records_and_the_digest_are_unchanged(self, tmp_path, keep):
        written = []
        path = save_embeddings(tmp_path / "k.bin", self.VIDEOS, written)
        records = ["2 {} {} {}\n".format(*v.shape).encode() + v.astype("<f8").tobytes()
                   for v in self.VIDEOS]
        assert written == [hashlib.sha256(record).hexdigest() for record in records]
        pairs = list(read_records(path, lambda index, shape:
                                  np.empty(shape) if index in keep else None))
        read = [digest for _, digest in pairs]
        assert read == [digest if index in keep else None for index, digest in enumerate(written)]
        loaded = [values for values, _ in pairs]
        assert len(loaded) == len(self.VIDEOS)
        for index, (got, want) in enumerate(zip(loaded, self.VIDEOS)):
            if index in keep:
                assert np.array_equal(got, want) and got.flags.writeable
            else:
                assert got is None

    def test_a_skipped_record_promising_too_much_raises(self, tmp_path):
        path = save_embeddings(tmp_path / "k.bin", self.VIDEOS)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TruncatedPayloadError, match="file holds 352"):
            load_embeddings(path, keep={0})


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXIEMB1\n" + b"0 1 1 1\n" + b"\x00" * 16)
        with pytest.raises(BadMagicError):
            load_embeddings(path)

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "trunc.bin"
        # header promises 3 frames, payload holds only 2 frames of patches
        payload = rng.standard_normal((2, 4, 5)).tobytes()
        path.write_bytes(MAGIC + b"2 3 4 5\n" + payload)
        with pytest.raises(TruncatedPayloadError, match="promises"):
            load_embeddings(path)

    @pytest.mark.parametrize("header", [
        b"2 " + b"9" * 20 + b" 1 1\n",
        b"2 4294967296 4294967296 2\n",
    ], ids=["beyond-int64", "int64-product-wraps-to-zero"])
    def test_header_promising_more_than_the_file_holds(self, tmp_path, header):
        path = tmp_path / "huge.bin"
        path.write_bytes(MAGIC + header + np.zeros(2).astype("<f8").tobytes())
        with pytest.raises(TruncatedPayloadError, match="promises"):
            load_embeddings(path)

    def test_header_with_wrong_field_count(self, tmp_path):
        path = tmp_path / "h.bin"
        path.write_bytes(MAGIC + b"2 3 4\n")
        with pytest.raises(HeaderFormatError):
            load_embeddings(path)

    def test_non_decimal_header(self, tmp_path):
        path = tmp_path / "h2.bin"
        path.write_bytes(MAGIC + b"frame 3 4 5\n")
        with pytest.raises(HeaderFormatError, match="non-decimal"):
            load_embeddings(path)

    @pytest.mark.parametrize("header", [
        b"2 +1 10 1", b"2 1 1_0 1", b"2 1 010 1", b" 2 1 10 1", b"2 1 10 1 ", b"2 1  10 1",
        b"2\t1 10 1", b"2 -1 10 1",
    ], ids=["plus-sign", "underscore", "leading-zero", "leading-space", "trailing-space",
            "double-space", "tab", "minus-sign"])
    def test_non_canonical_count(self, tmp_path, header):
        # each header reads as (1, 10, 1) under int(); only "2 1 10 1" is valid
        path = tmp_path / "h6.bin"
        path.write_bytes(MAGIC + header + b"\n" + np.zeros(10).astype("<f8").tobytes())
        with pytest.raises(HeaderFormatError, match="non-decimal"):
            load_embeddings(path)
        path.write_bytes(MAGIC + b"2 1 10 1\n" + np.zeros(10).astype("<f8").tobytes())
        assert load_embeddings(path)[0].shape == (1, 10, 1)

    @pytest.mark.parametrize("header", [
        b"\xff 3 4 5\n",
        b"2 3 4 \xc3\n",
        b"\xfe\xff\n",
        "\uff12 1 1 1\n".encode("utf-8"),
    ], ids=["first-byte-0xff", "truncated-utf8", "utf16-bom", "fullwidth-digit"])
    def test_non_ascii_header(self, tmp_path, header):
        path = tmp_path / "h5.bin"
        record = b"2 1 1 1\n" + np.zeros(1).astype("<f8").tobytes()
        path.write_bytes(MAGIC + record + header + np.zeros(1).astype("<f8").tobytes())
        with pytest.raises(HeaderFormatError, match="not ASCII text"):
            load_embeddings(path)

    @pytest.mark.parametrize("kind", [0, 1, 9])
    def test_unknown_kind(self, tmp_path, kind):
        path = tmp_path / "h3.bin"
        path.write_bytes(MAGIC + f"{kind} 3 4 5\n".encode())
        with pytest.raises(HeaderFormatError, match="unknown record kind"):
            load_embeddings(path)

    def test_non_positive_count(self, tmp_path):
        path = tmp_path / "h4.bin"
        path.write_bytes(MAGIC + b"2 0 4 5\n")
        with pytest.raises(HeaderFormatError, match="non-positive"):
            load_embeddings(path)

    def test_save_rejects_non_finite(self, tmp_path):
        bad = np.full((1, 2, 3), np.inf)
        with pytest.raises(ValueError, match="non-finite"):
            save_embeddings(tmp_path / "x.bin", [bad])

    def test_save_rejects_unknown_type(self, tmp_path):
        with pytest.raises(TypeError):
            save_embeddings(tmp_path / "x.bin", [np.zeros((2, 2))])


@given(data=st.data())
@settings(max_examples=300)
def test_corrupted_container_loads_or_raises_its_typed_error(fuzz_dir, data):
    rng = np.random.default_rng(5)
    path = save_embeddings(fuzz_dir / "two.bin", [rng.standard_normal((2, 3, 2)) for _ in range(2)])
    path.write_bytes(data.draw(mutants(path.read_bytes())))
    try:
        load_embeddings(path)
    except EmbeddingIOError:
        pass
