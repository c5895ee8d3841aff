"""Every name a library or test module imports is used in that module, no
library module imports a networking or threading module, every public
function of ``stilab.autodiff`` has a caller, and every function and class
of ``stilab._fileio`` is imported by another library module.

The package ``__init__`` is exempt from the unused-import check, because its
imports are the public re-exports, and so is ``test_acceptance.py``, whose
bytes stay frozen.
"""

import ast
import inspect
from pathlib import Path

import pytest

import stilab
import stilab._fileio
import stilab.autodiff
from test_trace_targets import tracing

PACKAGE = sorted(Path(stilab.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]
TESTS = sorted(
    path for path in Path(__file__).resolve().parent.glob("*.py")
    if path.name != "test_acceptance.py"
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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=[path.name for path in MODULES]
                         + [f"tests/{path.name}" for path in TESTS])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text("utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Sequence, Mapping\nsys.exit(Sequence)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: Mapping"]


# The package runs offline: keywords come from the mock extractor, and an
# LLM extractor writes attributes.jsonl outside it. It also runs on one
# thread: every command reads and scores on the calling thread.
NETWORK_PACKAGES = {"urllib", "http", "socket", "ssl", "email", "requests"}
THREAD_PACKAGES = {"threading", "_thread", "concurrent", "multiprocessing"}
FORBIDDEN = {"network": NETWORK_PACKAGES, "thread": THREAD_PACKAGES}


def forbidden_imports(source: str, packages: set[str]) -> list[str]:
    """The modules of ``packages`` that ``source`` imports anywhere,
    function bodies included, each with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.partition(".")[0] in packages]
    return found


@pytest.mark.parametrize("kind", sorted(FORBIDDEN))
@pytest.mark.parametrize("path", PACKAGE, ids=[path.name for path in PACKAGE])
def test_no_forbidden_imports(path, kind):
    assert forbidden_imports(path.read_text("utf-8"), FORBIDDEN[kind]) == []


def test_the_forbidden_import_check_looks_inside_functions():
    source = (
        "import json, urllib.request\nfrom http import client\nfrom .socket import x\n"
        "def f():\n    import ssl\n    from email.message import Message\n"
        "    from concurrent.futures import ThreadPoolExecutor\n"
        "import httpx, threading, _thread\nfrom multiprocessing import Pool\n"
        "from .threading import y\nimport threadpoolctl\n"
    )
    assert forbidden_imports(source, NETWORK_PACKAGES) == [
        "line 1: urllib.request", "line 2: http", "line 5: ssl", "line 6: email.message",
    ]
    # ast.walk reaches a function's body after the module's own statements
    assert forbidden_imports(source, THREAD_PACKAGES) == [
        "line 8: threading", "line 8: _thread", "line 9: multiprocessing",
        "line 7: concurrent.futures",
    ]


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


# Every function and class of the shared file codec, stilab._fileio, is
# imported by another library module; with the unused-import check above,
# that means it is used there.
FILEIO_NAMES = sorted(
    name for name, obj in vars(stilab._fileio).items()
    if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == "stilab._fileio"
)


def fileio_imports(source: str) -> set[str]:
    """Names that ``source``, a module of the stilab package, imports from
    ``stilab._fileio``, relatively or by its full name."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
        if (node.level, node.module) in ((1, "_fileio"), (0, "stilab._fileio"))
        for alias in node.names
    }


@pytest.fixture(scope="module")
def fileio_importers() -> set[str]:
    return set().union(*(fileio_imports(path.read_text("utf-8"))
                         for path in MODULES if path.name != "_fileio.py"))


@pytest.mark.parametrize("name", FILEIO_NAMES)
def test_fileio_function_is_imported_by_another_module(name, fileio_importers):
    assert name in fileio_importers


def test_the_fileio_check_sees_relative_and_absolute_imports():
    source = (
        "from ._fileio import atomic_open, parse_counts as pc\n"
        "from stilab._fileio import Fingerprint\n"
        "from .corpus import read_header\nfrom _fileio import json_value_fits\n"
    )
    assert fileio_imports(source) == {"atomic_open", "parse_counts", "Fingerprint"}
    # a decorated function and a class are both listed
    assert {"atomic_open", "Fingerprint"} <= set(FILEIO_NAMES)
