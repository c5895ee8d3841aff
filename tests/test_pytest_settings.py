"""The suite's pytest settings must report a failing property test as one
failure among the others, not abort the run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

INNER = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x is None


def test_passes():
    pass
'''


def test_a_failing_property_test_leaves_the_rest_of_the_run_going(tmp_path):
    (tmp_path / "test_inner.py").write_text(INNER)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_inner.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
