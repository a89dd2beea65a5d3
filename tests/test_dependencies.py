"""The package imports numpy, itself and the standard library, nothing else.

Every import statement of every module under ``src/orbilens`` is read
with ``ast``, without importing the module, so a package that happens to
be installed here (sympy, for one) cannot pass as a dependency.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "orbilens"
ALLOWED = {"numpy", "orbilens", *sys.stdlib_module_names}


def imported_packages(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_imports_are_declared(path):
    packages = set(imported_packages(ast.parse(path.read_text(encoding="utf-8"))))
    assert packages <= ALLOWED, sorted(packages - ALLOWED)
