"""No package module imports an underscore name from a sibling module."""

import ast
from pathlib import Path

import vertexlink

PACKAGE = Path(vertexlink.__file__).parent


def private_imports(package: Path) -> list[str]:
    """``file:line: name`` for each private name a module imports from the package.

    The kernel modules ``_kernel`` and ``_poly_*`` are private by name yet
    meant to be imported as modules, so ``from . import _kernel`` passes.
    """
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if not node.level and not module.startswith("vertexlink"):
                continue
            for alias in node.names:
                kernel_module = alias.name == "_kernel" or alias.name.startswith("_poly_")
                if alias.name.startswith("_") and not kernel_module:
                    found.append(f"{path.name}:{node.lineno}: {alias.name}")
    return found


def test_no_private_imports_across_modules():
    assert private_imports(PACKAGE) == []
