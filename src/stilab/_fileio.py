"""Failure-atomic file writes shared by every artifact writer."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


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
