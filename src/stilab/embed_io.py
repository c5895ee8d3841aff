"""Bit-exact container for raw video features.

File layout: the magic line ``STIEMB1\\n`` followed by one or more records.
Each record is a decimal text header line ``2 T N_p D`` (record kind 2, raw
per-patch video features) followed by T*N_p*D row-major little-endian
float64 values. Any other record kind is rejected.

Round-trips are bitwise lossless.
"""

from __future__ import annotations

from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from ._fileio import atomic_open

MAGIC = b"STIEMB1\n"

KIND_RAW_VIDEO = 2


class EmbeddingIOError(Exception):
    """Base error for container parsing."""


class BadMagicError(EmbeddingIOError):
    pass


class TruncatedPayloadError(EmbeddingIOError):
    pass


class HeaderFormatError(EmbeddingIOError):
    pass


def _read_array(fh: BinaryIO, shape: tuple[int, ...], what: str) -> np.ndarray:
    count = int(np.prod(shape)) if shape else 1
    nbytes = count * 8
    payload = fh.read(nbytes)
    if len(payload) != nbytes:
        raise TruncatedPayloadError(
            f"{what}: header promises {count} values ({nbytes} bytes), file holds {len(payload)}"
        )
    return np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)


def save_embeddings(path, videos: Sequence) -> Path:
    """Write (T, N_p, D) raw video feature arrays to a container file.

    Values must be finite.
    """
    path = Path(path)
    arrays = [np.asarray(video) for video in videos]
    for arr in arrays:
        if arr.ndim != 3:
            raise TypeError(f"expected a (T, N_p, D) array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("refusing to serialize non-finite values")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        for arr in arrays:
            t, n_p, d = arr.shape
            fh.write(f"{KIND_RAW_VIDEO} {t} {n_p} {d}\n".encode("ascii"))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return path


def _parse_header(line: str) -> tuple[int, tuple[int, ...]]:
    parts = line.split()
    if not parts:
        raise HeaderFormatError("empty record header")
    try:
        numbers = [int(p) for p in parts]
    except ValueError as exc:
        raise HeaderFormatError(f"non-decimal record header {line!r}") from exc
    kind, counts = numbers[0], tuple(numbers[1:])
    if any(c < 1 for c in counts):
        raise HeaderFormatError(f"non-positive count in record header {line!r}")
    return kind, counts


def load_embeddings(path) -> list[np.ndarray]:
    """Read every record from a container file, in order."""
    path = Path(path)
    out: list[np.ndarray] = []
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}")
        while True:
            line = fh.readline()
            if not line:
                break
            try:
                header = line.decode("ascii").rstrip("\n")
            except UnicodeDecodeError as exc:
                raise HeaderFormatError(f"record header is not ASCII text: {line[:32]!r}") from exc
            if not header.strip():
                raise HeaderFormatError("blank record header")
            kind, counts = _parse_header(header)
            if kind != KIND_RAW_VIDEO:
                raise HeaderFormatError(f"unknown record kind {kind}")
            if len(counts) != 3:
                raise HeaderFormatError(f"raw-video header needs T N_p D, got {header!r}")
            out.append(_read_array(fh, counts, "raw video features"))
    return out
