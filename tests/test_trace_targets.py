"""Every name the per-layer tracer patches must exist in the package.

The tracer wraps functions by (module, attribute) and tape primitives by
name; deleting or renaming one of them would make ``--trace 1`` runs fail.
This only checks that the names resolve, not that anything calls them.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import stilab.autodiff

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, attribute, span", tracing.SPAN_TARGETS)
def test_span_target_resolves(module, attribute, span):
    assert getattr(importlib.import_module(module), attribute, None) is not None, span


@pytest.mark.parametrize("op", tracing.TAPE_OPS)
def test_tape_op_resolves(op):
    assert callable(getattr(stilab.autodiff, op, None))
