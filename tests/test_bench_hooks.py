"""The traced benchmark run still finds every name it wraps.

``bench/tracing.py`` wraps package functions by attribute name and reads
the shapes of their arguments and results (``represent`` takes a word and
a model; ``trace_product`` and ``exact_divide`` return ring elements with
``.rat`` and ``.rad``).  A renamed function or a changed shape breaks only
the traced run, so this test replays it: for each workload, in a fresh
interpreter as the benchmark does, it installs the tracer, runs the
workload's setup and one segment of its operations, and checks every
output against the workload's own checks.  It then loads ``bench/run.py``
and records the environment, as the untraced run does (it reads
``vertexlink.kernel_name()``).  ``bench/`` is read, never changed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

CHILD = """
import importlib.util, json, sys, traceback
from pathlib import Path

bench, name = Path(sys.argv[1]), sys.argv[2]


def load(name):
    spec = importlib.util.spec_from_file_location(name, bench / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


tracing, workloads = load("tracing"), load("workloads")
pinned = json.loads((bench / "pinned.json").read_text())
W = workloads.WORKLOADS[name](1, pinned)
tracer = tracing.Tracer()
bad = []
try:
    tracer.install()
    try:
        W.setup()
        for op in W.ops():
            why = W.check(op, op.fn())
            if why:
                bad.append(f"{op.kind} {op.key}: {why}")
            if op.end:
                break
    finally:
        tracer.uninstall()
    tracer.metrics()
except Exception:
    bad.append(traceback.format_exc())
silent = [layer for layer in W.expected_layers if tracer.layers[layer].calls == 0]
try:  # the untraced run records the environment through the package too
    import vertexlink
    load("run").environment(vertexlink)
except Exception:
    bad.append(traceback.format_exc())
print(json.dumps([bad, silent]))
"""


@pytest.mark.parametrize("workload", ["closure-cap", "markov-skein", "verify-identities"])
def test_traced_segment_is_correct_and_every_layer_records(workload):
    src = ROOT / "src"
    path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(BENCH), workload],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert child.returncode == 0, child.stderr
    bad, silent = json.loads(child.stdout)
    assert bad == []
    assert silent == []
