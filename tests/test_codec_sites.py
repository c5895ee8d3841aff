"""The float64 payload encoding of the binary formats is spelled only in
``stilab._fileio``, so ``videos.bin`` and checkpoints share one codec."""

from pathlib import Path

import stilab

PACKAGE = Path(stilab.__file__).parent
ENCODING = "<f8"


def test_payload_encoding_appears_only_in_fileio():
    assert ENCODING in (PACKAGE / "_fileio.py").read_text("utf-8")
    sites = [
        f"{path.name}:{number}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "_fileio.py"
        for number, line in enumerate(path.read_text("utf-8").splitlines(), start=1)
        if ENCODING in line
    ]
    assert sites == []
