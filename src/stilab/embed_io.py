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

import math
import os
from pathlib import Path
from typing import Sequence

import numpy as np

from ._fileio import (
    PAYLOAD_DTYPE, atomic_open, header_text, parse_counts, read_floats, write_array,
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


def load_embeddings(path, digest=None, keep=None, shapes=None) -> list[np.ndarray | None]:
    """Read every record from a container file, in order, as writeable
    C-contiguous float64 arrays. The file is streamed once, front to back;
    every byte read also goes to ``digest.update`` when a digest is given.

    With ``keep``, a set of record indices, the other records are still
    read, checked and hashed, but through one reused buffer, and stand as
    ``None`` in the list: their values take no memory of their own. A
    ``shapes`` list gets every record's (T, N_p, D) appended, kept or not.
    """
    path = Path(path)
    out: list[np.ndarray | None] = []
    parsed: dict[bytes, tuple[int, ...]] = {}  # each distinct header line is parsed once
    scratch = np.empty(0, dtype=PAYLOAD_DTYPE)  # the values of records not kept
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}")
        left = os.fstat(fh.fileno()).st_size - len(MAGIC)
        if digest is not None:
            digest.update(magic)
        while left:
            line = fh.readline()
            shape = parsed.get(line)
            if shape is None:
                shape = _parse_header(header_text(line, HeaderFormatError, "record header"))
                parsed[line] = shape
            if digest is not None:
                digest.update(line)
            left -= len(line)
            kept = keep is None or len(out) in keep
            count = math.prod(shape)
            # a count past the end of the file raises in read_floats, unallocated
            if not kept and scratch.size < count <= left // 8:
                scratch = np.empty(count, dtype=PAYLOAD_DTYPE)
            features = read_floats(
                fh, shape, TruncatedPayloadError, "raw video features", left, digest,
                into=None if kept else scratch,
            )
            left -= features.nbytes
            out.append(features if kept else None)
            if shapes is not None:
                shapes.append(shape)
    return out
