"""Shared file plumbing: failure-atomic writes, the content fingerprint of
a set of files, the float64 value encoding of ``videos.bin`` and
checkpoints, and the rules for text read back from files. Both binary
formats are ASCII header lines ended by ``\\n``, then row-major
little-endian float64 values at offsets the header fixes. The readers raise
the ``error`` class their caller passes, so each format keeps its own typed
errors and its own header grammar."""

from __future__ import annotations

import errno
import hashlib
import os
import re
from contextlib import contextmanager
from pathlib import Path

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


class Fingerprint:
    """sha256 over each file's name and then its bytes, in path order: the
    one fingerprint rule of run manifests.

    A reader that parses some of the files takes them in path order with
    ``read_bytes``, so the fingerprint costs no second read of what it
    parses. The files it passes over are hashed in 1 MiB pieces, so hashing
    allocates no file-sized buffer.
    """

    def __init__(self, paths):
        self._pending = sorted(Path(p) for p in paths)
        self._digest = hashlib.sha256()

    def _hash_up_to(self, path: Path | None) -> None:
        while self._pending and self._pending[0] != path:
            self._digest.update(self._pending[0].name.encode("utf-8"))
            with open(self._pending.pop(0), "rb") as fh:
                while chunk := fh.read(1 << 20):
                    self._digest.update(chunk)

    def read_bytes(self, path) -> bytes:
        """Hash the files before ``path``, then read ``path`` whole,
        hashing its name and bytes as it is returned."""
        path = Path(path)
        if path not in self._pending:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
        self._hash_up_to(path)
        self._digest.update(self._pending.pop(0).name.encode("utf-8"))
        data = path.read_bytes()
        self._digest.update(data)
        return data

    def hexdigest(self) -> str:
        """Hash the files not yet read and return the fingerprint."""
        self._hash_up_to(None)
        return self._digest.hexdigest()


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
    any non-bool number; a str one takes a JSON string."""
    if kind is str:
        return isinstance(value, str)
    if kind is bool:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if kind is int:
        return isinstance(value, int)
    if kind is float:
        return isinstance(value, (int, float))
    return False
