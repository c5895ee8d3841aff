"""Bit-exact container for raw video features.

File layout: the magic line ``STIEMB1\\n``, then one binary record (see
``stilab._fileio``) per video, with header ``2 T N_p D`` (record kind 2,
raw per-patch video features) and T*N_p*D values, the counts written as
canonical decimals separated by single spaces. Other record kinds and
malformed headers raise ``HeaderFormatError``; a header promising more
values than the file holds raises ``TruncatedPayloadError``.

Round-trips are bitwise lossless.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from ._fileio import (
    atomic_open, bytes_left, parse_counts, read_floats, read_header, write_array,
)

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
            write_array(fh, f"{KIND_RAW_VIDEO} {t} {n_p} {d}", arr)
    return path


def _parse_header(line: str) -> tuple[int, ...]:
    """The (T, N_p, D) of a raw-video record header ``2 T N_p D``."""
    numbers = parse_counts(line, HeaderFormatError, "record header")
    if numbers[:1] != [KIND_RAW_VIDEO]:
        raise HeaderFormatError(f"unknown record kind in header {line!r}")
    if len(numbers) != 4:
        raise HeaderFormatError(f"raw-video header needs T N_p D, got {line!r}")
    if min(numbers[1:]) < 1:
        raise HeaderFormatError(f"non-positive count in record header {line!r}")
    return tuple(numbers[1:])


def load_embeddings(path) -> list[np.ndarray]:
    """Read every record from a container file, in order."""
    path = Path(path)
    out: list[np.ndarray] = []
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}")
        while bytes_left(fh):
            counts = _parse_header(read_header(fh, HeaderFormatError, "record header"))
            out.append(read_floats(fh, counts, TruncatedPayloadError, "raw video features"))
    return out
