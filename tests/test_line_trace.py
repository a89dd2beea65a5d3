"""The statement tracer in ``tools/line_trace.py``, on a fixture package."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_trace.py"
_spec = importlib.util.spec_from_file_location("line_trace", TOOL)
line_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_trace)

MODULE = '''\
"""Fixture module."""

LIMIT = 3


def clamp(x):
    """Docstring, never a statement."""
    if x > LIMIT:
        return LIMIT
    try:
        y = int(
            x
        )
    except ValueError:
        raise
    return y


def unused():
    def inner():
        return 0
    return inner
'''

TESTS = '''\
from tracedpkg.mod import clamp


def test_small():
    assert clamp(2) == 2
'''


def test_body_statements_skip_docstrings_and_module_level():
    starts = [line for line, _ in line_trace.body_statements(MODULE)]
    # if, return, try, y = int(...), raise, return y; then inner's def and both returns
    assert starts == [8, 9, 10, 11, 15, 16, 20, 21, 22]


def test_header_lines_of_compound_and_multiline_statements():
    headers = dict(line_trace.body_statements(MODULE))
    assert headers[10] == range(10, 11)
    assert headers[11] == range(11, 14)
    assert headers[20] == range(20, 21)


def test_main_lists_statements_a_pytest_run_never_reached(tmp_path, capsys, monkeypatch):
    package = tmp_path / "tracedpkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(MODULE))
    tests = tmp_path / "test_traced_fixture.py"
    tests.write_text(TESTS)
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    status = line_trace.main(
        [str(package), str(tests), "-q", "-p", "no:cacheprovider", "--rootdir", str(tmp_path)]
    )
    assert status == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[-6:] == [
        "mod.py:9: return LIMIT",
        "mod.py:15: raise",
        "mod.py:20: def inner():",
        "mod.py:21: return 0",
        "mod.py:22: return inner",
        "5 statements never ran",
    ]
