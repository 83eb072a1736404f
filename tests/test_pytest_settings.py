"""The repository's pytest settings, run on a small suite in a subprocess."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

SUITE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # Under error::DeprecationWarning, hypothesis's failure report once
    # stopped the session with INTERNALERROR: it imports libcst where that
    # is installed, and libcst's import of mypy_extensions warns. Without
    # libcst the report imports neither, and this passes either way.
    (tmp_path / "test_suite.py").write_text(SUITE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "1 failed, 1 passed" in proc.stdout
