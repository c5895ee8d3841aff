"""Bit-exact container for raw video features of one shape.

File layout: the magic line ``STIEMB2\\n``, then one ASCII header line
``N T N_p D``, the counts written as canonical decimals separated by single
spaces, then the N videos' T*N_p*D little-endian float64 values each, back
to back. So video i's values start at a fixed offset, and a reader seeks
straight to the videos it keeps. A malformed header raises
``HeaderFormatError``; a file whose size is not exactly what its header
promises raises ``TruncatedPayloadError``.

Round-trips are bitwise lossless.
"""

from __future__ import annotations

import hashlib
import math
import os
from pathlib import Path
from typing import Sequence

import numpy as np

from ._fileio import PAYLOAD_DTYPE, atomic_open, parse_counts, read_header

MAGIC = b"STIEMB2\n"

# The reader's buffer holds about the magic and the header line. A larger
# one would pull values into memory that are thrown away when the reader
# seeks to a video it keeps; kept values go through ``readinto`` whatever
# the buffer size.
_HEADER_BUFFER_BYTES = 64


class EmbeddingIOError(Exception):
    """Base error for container parsing."""


class BadMagicError(EmbeddingIOError):
    pass


class TruncatedPayloadError(EmbeddingIOError):
    pass


class HeaderFormatError(EmbeddingIOError):
    pass


def save_embeddings(path, videos: Sequence, shape: tuple[int, int, int]) -> list[str]:
    """Write raw video feature arrays, each of ``shape`` (T, N_p, D), to a
    container file. Values must be finite. Returns each video's sha256, the
    digest of its value bytes, in order."""
    arrays = [np.asarray(video) for video in videos]
    shape = tuple(shape)
    if len(shape) != 3 or min(shape) < 1:
        raise TypeError(f"expected a positive (T, N_p, D) shape, got {shape}")
    for arr in arrays:
        if arr.shape != shape:
            raise TypeError(f"expected a {shape} array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("refusing to serialize non-finite values")
    digests = []
    with atomic_open(Path(path), "wb") as fh:
        fh.write(MAGIC + f"{len(arrays)} {' '.join(map(str, shape))}\n".encode("ascii"))
        for arr in arrays:
            values = np.ascontiguousarray(arr, dtype=PAYLOAD_DTYPE)
            # a copy per video, freed once written: writing the array itself
            # left train-large's peak RSS 6-10% higher in about half the
            # benchmark runs
            fh.write(values.tobytes())
            digests.append(hashlib.sha256(values).hexdigest())
    return digests


class EmbeddingFile:
    """An open container file whose magic, header and size are checked
    before any value is read: ``count`` videos of ``shape`` (T, N_p, D).
    Use it as a context manager, which closes the file."""

    def __init__(self, path):
        path = Path(path)
        self._fh = open(path, "rb", buffering=_HEADER_BUFFER_BYTES)
        try:
            magic = self._fh.read(len(MAGIC))
            if magic != MAGIC:
                raise BadMagicError(f"{path}: bad magic {magic!r}")
            line = read_header(self._fh, HeaderFormatError, f"{path}: header")
            counts = parse_counts(line, HeaderFormatError, f"{path}: header")
            if len(counts) != 4 or min(counts[1:]) < 1:
                raise HeaderFormatError(f"{path}: header needs N and positive T N_p D, "
                                        f"got {line!r}")
            self.count, *shape = counts
            self.shape = tuple(shape)
            self.stride = 8 * math.prod(self.shape)
            self._start = self._fh.tell()
            size = os.fstat(self._fh.fileno()).st_size
            if size != self._start + self.count * self.stride:
                raise TruncatedPayloadError(
                    f"{path}: header promises {self.count} videos of {self.stride} bytes, "
                    f"file holds {size - self._start}")
        except BaseException:
            self._fh.close()
            raise

    def read(self, position: int, out: np.ndarray) -> str:
        """Read video ``position``, 0 <= position < count, into ``out``, a
        writeable C-contiguous float64 array of ``shape``, and return the
        sha256 of its value bytes."""
        self._fh.seek(self._start + position * self.stride)
        if self._fh.readinto(out) != self.stride:
            raise TruncatedPayloadError(f"file ended inside video {position}")
        digest = hashlib.sha256(out).hexdigest()
        if out.dtype != PAYLOAD_DTYPE:  # a big-endian machine read little-endian bytes
            out.byteswap(inplace=True)
        return digest

    def __enter__(self) -> EmbeddingFile:
        return self

    def __exit__(self, *exc_info) -> None:
        self._fh.close()


def load_embeddings(path, keep=None) -> list[np.ndarray | None]:
    """Read the videos of a container file, in order, as writeable
    C-contiguous float64 arrays, read by ``EmbeddingFile.read``.

    With ``keep``, a set of video positions, only those videos' values are
    read; the others stand as ``None`` in the list.
    """
    with EmbeddingFile(path) as videos:
        loaded = []
        for position in range(videos.count):
            out = None
            if keep is None or position in keep:
                out = np.empty(videos.shape)
                videos.read(position, out)
            loaded.append(out)
    return loaded
