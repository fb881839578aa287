"""No function outside ``packed`` takes a packing width: each exact check computes its own."""

import ast
from pathlib import Path

import vertexlink

PACKAGE = Path(vertexlink.__file__).parent


def width_parameters(package: Path) -> list[str]:
    """``file:line: function`` for each function outside ``packed.py`` with a parameter
    named ``bits``.

    A check that packs at a proven width computes that width where it packs;
    a width passed in could be one the proof does not cover.  ``packed``
    holds the packed matrices and the routines that pack at a given width.
    """
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "packed.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                          *filter(None, (args.vararg, args.kwarg))]
                if any(a.arg == "bits" for a in params):
                    found.append(f"{path.name}:{node.lineno}: {node.name}")
    return found


def test_no_function_outside_packed_takes_a_width():
    assert width_parameters(PACKAGE) == []


def test_a_width_parameter_is_found(tmp_path):
    (tmp_path / "packed.py").write_text("def pack(values, bits):\n    pass\n")
    (tmp_path / "check.py").write_text(
        "def ok(m):\n    pass\n\n\ndef narrow(exact, bits, names):\n    pass\n")
    assert width_parameters(tmp_path) == ["check.py:5: narrow"]
