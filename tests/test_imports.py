"""Every name a library module imports is used in that module, and every
public function of ``stilab.autodiff`` has a caller.

The package ``__init__`` is exempt from the first check: its imports are the
public re-exports.
"""

import ast
import inspect
from pathlib import Path

import pytest

import stilab
import stilab.autodiff
from test_trace_targets import tracing

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


# Every public function of stilab.autodiff needs a caller: another library
# module, the acceptance suite, or the per-layer tracer's op list.
AUTODIFF_FUNCTIONS = sorted(
    name for name, fn in inspect.getmembers(stilab.autodiff, inspect.isfunction)
    if fn.__module__ == "stilab.autodiff" and not name.startswith("_")
)
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def autodiff_calls(source: str, package: bool) -> set[str]:
    """Names of ``stilab.autodiff`` functions that ``source`` calls, either
    through the module (``from stilab import autodiff as ad``, then
    ``ad.maxsim(...)``) or as a name imported from it.
    ``package`` says whether relative imports (``from . import autodiff``)
    resolve to the stilab package."""
    tree = ast.parse(source)
    parents, owners = {"stilab"}, {"stilab.autodiff"}
    if package:
        parents, owners = parents | {"."}, owners | {".autodiff"}
    modules: set[str] = set()  # local names bound to the autodiff module
    functions: dict[str, str] = {}  # local name -> autodiff function name
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        # "stilab" or "stilab.autodiff"; "." or ".autodiff" inside the package
        module = "." * node.level + (node.module or "")
        if module in parents:
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "autodiff"}
        elif module in owners:
            functions.update({alias.asname or alias.name: alias.name for alias in node.names})
    called = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in modules:
                called.add(func.attr)
        elif isinstance(func, ast.Name) and func.id in functions:
            called.add(functions[func.id])
    return called


@pytest.fixture(scope="module")
def autodiff_callers() -> set[str]:
    called = set(tracing.TAPE_OPS)
    for path in MODULES:
        if path.name != "autodiff.py":
            called |= autodiff_calls(path.read_text("utf-8"), package=True)
    return called | autodiff_calls(ACCEPTANCE.read_text("utf-8"), package=False)


@pytest.mark.parametrize("name", AUTODIFF_FUNCTIONS)
def test_public_autodiff_function_has_a_caller(name, autodiff_callers):
    assert name in autodiff_callers


def test_the_call_check_sees_module_and_imported_calls():
    source = (
        "from . import autodiff as ad\nfrom .autodiff import relu as r\n"
        "from stilab.autodiff import exp\n"
        "ad.maxsim(x)\nr(x)\nexp(x)\nad.stack\nother.clip(x)\n"
    )
    assert autodiff_calls(source, package=True) == {"maxsim", "relu", "exp"}
    assert autodiff_calls(source, package=False) == {"exp"}
