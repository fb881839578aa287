"""The package never loads numpy: not with the exact pipeline, not with the
quantum-group checks, and not with the float spectral checks."""

import json
import os
import subprocess
import sys
from pathlib import Path

from vertexlink import selftest

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

# refuses numpy outright, so a run that needs it fails instead of loading it
SPECTRAL_CHILD = """
import io, json, sys
class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"{name} is refused")
sys.meta_path.insert(0, RefuseNumpy())
from vertexlink import selftest
from vertexlink.models import SpectralModel, build_model, limit_check, spectral_checks
out = io.StringIO()
code = selftest.run(seed=0, out=out, err=io.StringIO())
ok = []
for N in (2, 3):
    sm = SpectralModel(N, 0.8)
    ok.append(spectral_checks(sm, 0.3, -0.7).ok(1e-9)
              and limit_check(sm, build_model(N), u_large=15.0, u_reference=8.0).ok(1e-6))
print(json.dumps([code, out.getvalue(), ok, "numpy" in sys.modules]))
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


def test_selftest_and_spectral_checks_run_with_numpy_refused():
    code, report, ok, loaded = json.loads(_numpy_loaded(SPECTRAL_CHILD))
    rows = dict(line.split()[:2] for line in report.splitlines()[1:-1])
    # every row runs, spectral included; only the documented plain j = 1 clause fails
    assert rows == {name: "FAIL" if name == "uq-correspondence" else "PASS"
                    for name in selftest.CHECK_NAMES}
    assert code == 1
    assert ok == [True, True]
    assert loaded is False
