import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stilab.embed_io import (
    MAGIC,
    BadMagicError,
    EmbeddingFile,
    EmbeddingIOError,
    HeaderFormatError,
    TruncatedPayloadError,
    load_embeddings,
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


def container(header: bytes, values: int) -> bytes:
    """A container with the header line ``header`` and ``values`` zeros."""
    return MAGIC + header + b"\n" + np.zeros(values).astype("<f8").tobytes()


class TestRoundTrips:
    def test_layout_and_values(self, tmp_path):
        rng = np.random.default_rng(2)
        videos = [rng.standard_normal((2, 3, 4)) for _ in range(3)]
        path = tmp_path / "m.bin"
        digests = save_embeddings(path, videos, (2, 3, 4))
        loaded = load_embeddings(path)
        assert len(loaded) == 3
        for got, want in zip(loaded, videos):
            assert np.array_equal(got, want)
        values = [v.astype("<f8").tobytes() for v in videos]
        assert path.read_bytes() == MAGIC + b"3 2 3 4\n" + b"".join(values)
        assert digests == [hashlib.sha256(data).hexdigest() for data in values]

    def test_empty_container(self, tmp_path):
        path = tmp_path / "e.bin"
        assert save_embeddings(path, [], (1, 2, 3)) == []
        assert path.read_bytes() == MAGIC + b"0 1 2 3\n"
        assert load_embeddings(path) == []


class TestKeep:
    """The videos not kept stand as None: the reader seeks past their
    values. Each video read hashes to the sha256 written."""

    VIDEOS = [np.full((2, 5, 4), value) for value in (1.0, 2.0, 3.0, 4.0)]

    @pytest.mark.parametrize("keep", [set(), {0}, {2}, {1, 3}, {0, 1, 2, 3}])
    def test_kept_videos_are_read_and_the_rest_stand_as_none(self, tmp_path, keep):
        path = tmp_path / "k.bin"
        save_embeddings(path, self.VIDEOS, (2, 5, 4))
        loaded = load_embeddings(path, keep)
        assert len(loaded) == len(self.VIDEOS)
        for index, (got, want) in enumerate(zip(loaded, self.VIDEOS)):
            if index in keep:
                assert np.array_equal(got, want) and got.flags.writeable
            else:
                assert got is None

    @pytest.mark.parametrize("position", [3, 0, 2])
    def test_a_read_fills_the_array_and_returns_the_written_digest(self, tmp_path, position):
        path = tmp_path / "k.bin"
        written = save_embeddings(path, self.VIDEOS, (2, 5, 4))
        with EmbeddingFile(path) as videos:
            assert (videos.count, videos.shape) == (4, (2, 5, 4))
            out = np.empty((2, 5, 4))
            assert videos.read(position, out) == written[position]
        assert np.array_equal(out, self.VIDEOS[position])


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXIEMB2\n" + container(b"1 1 1 2", 2)[len(MAGIC):])
        with pytest.raises(BadMagicError):
            load_embeddings(path)

    def test_the_previous_format_has_a_bad_magic(self, tmp_path):
        path = tmp_path / "v1.bin"
        path.write_bytes(b"STIEMB1\n2 1 1 2\n" + np.zeros(2).astype("<f8").tobytes())
        with pytest.raises(BadMagicError):
            load_embeddings(path)

    @pytest.mark.parametrize("values", [0, 5, 7, 9, 20])
    def test_a_size_other_than_the_header_promises(self, tmp_path, values):
        # the header promises 2 videos of 1 x 2 x 2 values: 8 in all
        path = tmp_path / "size.bin"
        path.write_bytes(container(b"2 1 2 2", values))
        with pytest.raises(TruncatedPayloadError, match="promises 2 videos of 32 bytes"):
            load_embeddings(path, keep=set())
        path.write_bytes(container(b"2 1 2 2", 8))
        assert len(load_embeddings(path)) == 2

    def test_a_truncated_file_raises_before_any_video_is_read(self, tmp_path):
        path = tmp_path / "t.bin"
        save_embeddings(path, TestKeep.VIDEOS, (2, 5, 4))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TruncatedPayloadError, match="file holds 1272"):
            EmbeddingFile(path)

    def test_a_file_cut_after_its_checks_raises_on_the_read(self, tmp_path):
        path = tmp_path / "t.bin"
        save_embeddings(path, TestKeep.VIDEOS, (2, 5, 4))
        with EmbeddingFile(path) as videos:
            path.write_bytes(path.read_bytes()[:-8])
            videos.read(2, np.empty((2, 5, 4)))
            with pytest.raises(TruncatedPayloadError, match="file ended inside video 3"):
                videos.read(3, np.empty((2, 5, 4)))

    @pytest.mark.parametrize("header", [
        b"1 " + b"9" * 20 + b" 1 1",
        b"1 4294967296 4294967296 2",
        b"4294967296 4294967296 1 1",
    ], ids=["beyond-int64", "int64-product-wraps-to-zero", "count-times-stride-wraps"])
    def test_header_promising_more_than_the_file_holds(self, tmp_path, header):
        path = tmp_path / "huge.bin"
        path.write_bytes(container(header, 2))
        with pytest.raises(TruncatedPayloadError, match="promises"):
            load_embeddings(path)

    @pytest.mark.parametrize("header", [b"2 3 4", b"1 1 3 4 5", b""],
                             ids=["three-counts", "five-counts", "empty"])
    def test_header_with_wrong_field_count(self, tmp_path, header):
        path = tmp_path / "h.bin"
        path.write_bytes(container(header, 0))
        with pytest.raises(HeaderFormatError):
            load_embeddings(path)

    def test_a_missing_header_line(self, tmp_path):
        path = tmp_path / "h.bin"
        path.write_bytes(MAGIC + b"1 1 1 1")
        with pytest.raises(HeaderFormatError, match="truncated header line"):
            load_embeddings(path)

    def test_non_decimal_header(self, tmp_path):
        path = tmp_path / "h2.bin"
        path.write_bytes(container(b"frames 3 4 5", 60))
        with pytest.raises(HeaderFormatError, match="non-decimal"):
            load_embeddings(path)

    @pytest.mark.parametrize("header", [
        b"1 1 +1 10", b"1 1 1_0 1", b"1 1 010 1", b" 1 1 10 1", b"1 1 10 1 ", b"1 1  10 1",
        b"1\t1 10 1", b"1 -1 10 1",
    ], ids=["plus-sign", "underscore", "leading-zero", "leading-space", "trailing-space",
            "double-space", "tab", "minus-sign"])
    def test_non_canonical_count(self, tmp_path, header):
        # each header reads as (1, 1, 10, 1) under int(); only "1 1 10 1" is valid
        path = tmp_path / "h6.bin"
        path.write_bytes(container(header, 10))
        with pytest.raises(HeaderFormatError, match="non-decimal"):
            load_embeddings(path)
        path.write_bytes(container(b"1 1 10 1", 10))
        assert load_embeddings(path)[0].shape == (1, 10, 1)

    @pytest.mark.parametrize("header", [
        b"\xff 3 4 5",
        b"1 3 4 \xc3",
        b"\xfe\xff",
        "\uff12 1 1 1".encode("utf-8"),
    ], ids=["first-byte-0xff", "truncated-utf8", "utf16-bom", "fullwidth-digit"])
    def test_non_ascii_header(self, tmp_path, header):
        path = tmp_path / "h5.bin"
        path.write_bytes(container(header, 1))
        with pytest.raises(HeaderFormatError, match="not ASCII text"):
            load_embeddings(path)

    @pytest.mark.parametrize("header", [b"1 0 4 5", b"1 3 0 5", b"1 3 4 0", b"0 0 1 1"])
    def test_non_positive_shape(self, tmp_path, header):
        path = tmp_path / "h4.bin"
        path.write_bytes(container(header, 0))
        with pytest.raises(HeaderFormatError, match="positive T N_p D"):
            load_embeddings(path)

    def test_save_rejects_non_finite(self, tmp_path):
        bad = np.full((1, 2, 3), np.inf)
        with pytest.raises(ValueError, match="non-finite"):
            save_embeddings(tmp_path / "x.bin", [bad], (1, 2, 3))

    @pytest.mark.parametrize("video, shape", [
        (np.zeros((2, 2)), (2, 2)),
        (np.zeros((1, 2, 3)), (1, 2, 4)),
        (np.zeros((1, 0, 3)), (1, 0, 3)),
    ], ids=["two-axes", "another-shape", "empty-axis"])
    def test_save_rejects_a_video_of_another_shape(self, tmp_path, video, shape):
        with pytest.raises(TypeError):
            save_embeddings(tmp_path / "x.bin", [np.zeros((1, 2, 3)), video], shape)
        assert not (tmp_path / "x.bin").exists()


@given(data=st.data())
@settings(max_examples=300)
def test_corrupted_container_loads_or_raises_its_typed_error(fuzz_dir, data):
    rng = np.random.default_rng(5)
    videos = [rng.standard_normal((2, 3, 2)) for _ in range(2)]
    path = fuzz_dir / "two.bin"
    save_embeddings(path, videos, (2, 3, 2))
    path.write_bytes(data.draw(mutants(path.read_bytes())))
    try:
        loaded = load_embeddings(path)
    except EmbeddingIOError:
        return
    # no single edit keeps the size of another header, so a mutant that
    # loads differs from the file written at most in its values
    assert len(loaded) == 2 and all(v.shape == (2, 3, 2) for v in loaded)
