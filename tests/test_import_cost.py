"""The exact pipeline and the quantum-group checks run without loading numpy;
only the spectral checks need it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import sys
import vertexlink.cli, vertexlink.invariants, vertexlink.uqsl2
from vertexlink.braid import BraidWord
from vertexlink.invariants import ambient_invariant
from vertexlink.models import build_model
for N in (2, 3, 4):
    ambient_invariant(BraidWord(3, (1, -2, 1)), build_model(N))
print("numpy" in sys.modules)
"""

UQ_CHILD = """
import sys
from fractions import Fraction
from vertexlink.uqsl2 import correspondence_report
for j in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
    correspondence_report(j)
print("numpy" in sys.modules)
"""


def _numpy_loaded(code: str) -> str:
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.strip()


def test_invariants_and_cli_import_no_numpy():
    assert _numpy_loaded(CHILD) == "False"


def test_correspondence_report_loads_no_numpy():
    assert _numpy_loaded(UQ_CHILD) == "False"
