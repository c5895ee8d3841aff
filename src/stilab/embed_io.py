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

import io
import os
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ._fileio import (
    atomic_open, header_text, parse_counts, payload_bytes, read_floats, record_sha256, write_array,
)

MAGIC = b"STIEMB1\n"

KIND_RAW_VIDEO = 2

# The reader's buffer holds about one record header line. A larger one would
# pull the values after each header into memory, to be thrown away when the
# reader seeks past a record it does not keep; kept values go through
# ``readinto`` whatever the buffer size.
_HEADER_BUFFER_BYTES = 64


class EmbeddingIOError(Exception):
    """Base error for container parsing."""


class BadMagicError(EmbeddingIOError):
    pass


class TruncatedPayloadError(EmbeddingIOError):
    pass


class HeaderFormatError(EmbeddingIOError):
    pass


def save_embeddings(path, videos: Sequence, digests: list | None = None) -> Path:
    """Write (T, N_p, D) raw video feature arrays to a container file.

    Values must be finite. A ``digests`` list gets each record's sha256
    (``_fileio.record_sha256``) appended, in order, from the bytes written.
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
            digest = write_array(fh, f"{KIND_RAW_VIDEO} {t} {n_p} {d}", arr)
            if digests is not None:
                digests.append(digest)
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


def read_records(path, into) -> Iterator[tuple[np.ndarray | None, str | None]]:
    """Read the records of a container file in one pass, front to back.
    Every record header is read and checked, each against the bytes left
    after it.

    For each record, ``into(index, shape)`` is called with the record's
    position and (T, N_p, D). It returns the writeable C-contiguous float64
    array of that shape to read the values into, or None to seek past them.
    Yields (values, sha256) for each record read (``_fileio.record_sha256``)
    and (None, None) for each record passed over. A record is read only when
    the consumer asks for it, so the consumer may hand out an array again
    once it has asked for the next record.
    """
    path = Path(path)
    parsed: dict[bytes, tuple[int, ...]] = {}  # each distinct header line is parsed once
    with open(path, "rb", buffering=_HEADER_BUFFER_BYTES) as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}")
        left = os.fstat(fh.fileno()).st_size - len(MAGIC)
        index = 0
        while left:
            line = fh.readline()
            shape = parsed.get(line)
            if shape is None:
                shape = _parse_header(header_text(line, HeaderFormatError, "record header"))
                parsed[line] = shape
            left -= len(line)
            nbytes = payload_bytes(shape, left, TruncatedPayloadError, "raw video features")
            out = into(index, shape)
            if out is None:
                fh.seek(nbytes, io.SEEK_CUR)
                record = (None, None)
            else:
                values = read_floats(fh, shape, TruncatedPayloadError, "raw video features",
                                     left, out)
                record = (values, record_sha256(line, values))
            left -= nbytes
            index += 1
            yield record


def load_embeddings(path, keep=None) -> list[np.ndarray | None]:
    """Read the records of a container file, in order, as writeable
    C-contiguous float64 arrays: the values ``read_records`` yields.

    With ``keep``, a set of record indices, only those records' values are
    read: the reader seeks past the others, which stand as ``None`` in the
    list.
    """
    def into(index, shape):
        return np.empty(shape) if keep is None or index in keep else None

    return [values for values, _ in read_records(path, into)]
