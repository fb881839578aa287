"""The pytest configuration lets every test report, a failing Hypothesis test included."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_trivial():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # Hypothesis's failure report imports libcst where it is installed, and
    # under filterwarnings = ["error"] libcst's DeprecationWarning became an
    # INTERNALERROR that stopped the run before test_trivial
    (tmp_path / "test_pair.py").write_text(PAIR)
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pair.py"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in child.stdout + child.stderr, child.stdout
    assert child.returncode == 1, child.stdout
    assert "1 failed, 1 passed" in child.stdout, child.stdout
