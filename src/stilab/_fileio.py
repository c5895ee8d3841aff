"""Shared file plumbing: failure-atomic writes, the one codec of the
binary records in ``videos.bin`` and checkpoints, and the rules for values
read back from files. A record is an ASCII header line ended by ``\\n``,
then row-major little-endian float64 values. The readers raise the
``error`` class their caller passes, so each format keeps its own typed
errors and its own header grammar."""

from __future__ import annotations

import io
import math
import os
import re
from contextlib import contextmanager
from pathlib import Path

import numpy as np

PAYLOAD_DTYPE = "<f8"
_COUNT = re.compile(r"0|[1-9][0-9]*")  # the decimal form ``str(int)`` gives a count


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file next to ``path`` for writing.

    On a clean exit the temporary file replaces ``path`` in one
    ``os.replace``; if the body raises, any previous ``path`` is left
    untouched and the temporary file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_array(fh, header: str, array) -> None:
    """Write one record: ``header`` as an ASCII line, then the values."""
    fh.write(f"{header}\n".encode("ascii"))
    fh.write(np.ascontiguousarray(array, dtype=PAYLOAD_DTYPE).tobytes())


def bytes_left(fh) -> int:
    """Bytes between the position of the seekable ``fh`` and its end."""
    here = fh.tell()
    end = fh.seek(0, io.SEEK_END)
    fh.seek(here)
    return end - here


def read_header(fh, error: type[Exception], what: str) -> str:
    """Read one newline-terminated ASCII line and return it without the
    newline; a missing newline or a non-ASCII byte raises ``error``."""
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise error(f"{what}: truncated header line {line[:32]!r}")
    try:
        return line[:-1].decode("ascii")
    except UnicodeDecodeError as exc:
        raise error(f"{what}: header is not ASCII text: {line[:32]!r}") from exc


def read_floats(fh, shape: tuple[int, ...], error: type[Exception], what: str) -> np.ndarray:
    """Read a float64 array of ``shape``; a header promising more values
    than ``fh`` holds raises ``error`` before anything is read."""
    count = math.prod(shape)
    nbytes = 8 * count
    left = bytes_left(fh)
    if not 0 <= nbytes <= left:
        raise error(f"{what}: header promises {count} values ({nbytes} bytes), file holds {left}")
    values = np.empty(count, dtype=PAYLOAD_DTYPE)
    fh.readinto(values)
    return values.astype(np.float64, copy=False).reshape(shape)


def parse_counts(text: str, error: type[Exception], what: str) -> list[int]:
    """The counts in ``text``, written as the binary formats' writers write
    them: unsigned decimals without leading zeros, separated by single
    spaces. Any other form (a sign, ``_``, a tab, a leading, trailing or
    doubled space) raises ``error``."""
    fields = text.split(" ")
    if not all(_COUNT.fullmatch(field) for field in fields):
        raise error(f"{what}: non-decimal count in {text!r}")
    return [int(field) for field in fields]


def json_value_fits(value, kind: type) -> bool:
    """Whether a JSON value can stand for a setting of type ``kind``: a bool
    setting takes a JSON bool, an int one a non-bool integer, and a float one
    any non-bool number."""
    if kind is bool:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if kind is int:
        return isinstance(value, int)
    if kind is float:
        return isinstance(value, (int, float))
    return False
