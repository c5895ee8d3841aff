"""Every name a library module imports is used in that module.

The package ``__init__`` is exempt: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

import stilab

MODULES = sorted(
    path for path in Path(stilab.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text("utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Sequence, Mapping\nsys.exit(Sequence)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: Mapping"]
