"""List the function-body statements of a package that a pytest run never ran.

No coverage package is needed: the tests run in this process under
``sys.settrace``, which records the line events of code whose file lies
under the package directory.

    python tools/line_trace.py [package_dir [pytest_arg ...]]

prints one ``path:line: statement`` row per statement inside a function
body (docstrings excepted) that produced no line event, then the count.
The package defaults to the repository's ``src/orbilens``, and pytest
takes the remaining arguments, by default none, so it reads its own
configuration.  Only the calling thread is traced, so a statement
reached only in another thread or a child process is listed.  The exit
status is pytest's.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DOCUMENTED = (ast.Module, ast.ClassDef, *FUNCTIONS)


def _header(stmt: ast.stmt) -> range:
    """Lines whose line event shows that ``stmt`` ran.

    A simple statement spans its own lines; a compound statement spans
    its decorators and its header, up to the first line of its body.
    """
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    last = body[0].lineno - 1 if body else stmt.end_lineno
    return range(first, max(first, last) + 1)


def body_statements(source: str) -> list[tuple[int, range]]:
    """(first line, header lines) of every statement inside a function body."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None
    }
    found = {}
    for func in ast.walk(tree):
        if isinstance(func, FUNCTIONS):
            for node in ast.walk(func):
                if isinstance(node, ast.stmt) and node is not func and id(node) not in docstrings:
                    found[node.lineno] = _header(node)
    return sorted(found.items())


def trace(package: Path, run):
    """Call ``run()`` while recording line events under ``package``.

    Returns ``run``'s result and the set of (resolved path, line) hits.
    """
    root = package.resolve()
    hits: set[tuple[str, int]] = set()
    inside: dict[str, str | None] = {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((inside[frame.f_code.co_filename], frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = Path(name).resolve()
            inside[name] = str(path) if path.is_relative_to(root) else None
        return local if inside[name] else None

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(old)
    return result, hits


def never_ran(package: Path, hits) -> list[tuple[Path, int, str]]:
    """(path, line, source line) of each body statement without a hit."""
    rows = []
    for path in sorted(package.resolve().rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for lineno, header in body_statements(source):
            if not any((str(path), line) in hits for line in header):
                rows.append((path, lineno, lines[lineno - 1].strip()))
    return rows


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "orbilens"
    status, hits = trace(package, lambda: pytest.main(argv[1:]))
    rows = never_ran(package, hits)
    for path, lineno, text in rows:
        print(f"{path.relative_to(package.resolve())}:{lineno}: {text}")
    print(f"{len(rows)} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
