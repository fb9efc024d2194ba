"""The warning filters of pyproject.toml: warnings fail tests, and a failing
hypothesis test still reports as one failure."""

import os
import subprocess
import sys
import warnings

import pytest

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pyproject.toml")

FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_fails(x):
    assert x < 10

def test_passes():
    pass
"""


def test_deprecation_warnings_fail_tests():
    with pytest.raises(DeprecationWarning):
        warnings.warn("deprecated", DeprecationWarning)


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    """Explaining a failure imports libcst, whose DeprecationWarning must not
    turn into an INTERNALERROR that ends the session."""
    (tmp_path / "test_example.py").write_text(FAILING_THEN_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", PYPROJECT, "--rootdir", str(tmp_path), "test_example.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
