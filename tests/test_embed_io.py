import numpy as np
import pytest

from stilab.embed_io import (
    MAGIC,
    BadMagicError,
    HeaderFormatError,
    TruncatedPayloadError,
    load_embeddings,
    save_embeddings,
)


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
