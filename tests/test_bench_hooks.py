"""The names perfbench's tracer hooks still exist in the package.

``perfbench/tracing.py`` wraps module attributes by name and reports a
missing one as absent, so its per-layer metric then reads 0 without
failing.  This test reads the target table from that file, without
importing or changing it, and fails instead.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Targets the tracer has reported absent since before this check existed.
ABSENT = {
    ("orbilens.search", "is_isospectral"),
    ("orbilens.search", "same_heat_expansion"),
    ("orbilens.heat", "canonical_form"),
}


def _assigned(name):
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING}")


def test_every_traced_name_is_callable():
    targets = _assigned("TARGETS")
    assert targets
    for module, attr, _, _ in targets:
        if (module, attr) not in ABSENT:
            assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_records_module_has_public_functions_to_trace():
    records = importlib.import_module(_assigned("RECORDS_MODULE"))
    traced = [
        name
        for name, fn in vars(records).items()
        if not name.startswith("_")
        and callable(fn)
        and getattr(fn, "__module__", None) == records.__name__
        and not isinstance(fn, type)
    ]
    assert traced
