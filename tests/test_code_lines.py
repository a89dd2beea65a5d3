"""The code-line counter in ``tools/code_lines.py``, on fixture sources."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def count(source: str) -> int:
    return code_lines.code_lines(textwrap.dedent(source))


def test_docstrings_not_counted():
    source = '''
        """Module docstring
        over two lines."""


        class Thing:
            """Class docstring."""

            def method(self):
                """Method docstring
                over two lines.
                """
                return 1


        async def run():
            """Coroutine docstring."""
            return 2
        '''
    # class, def, return, async def, return
    assert count(source) == 5


def test_comments_and_blank_lines_not_counted():
    source = """
        # a comment line

        x = 1  # a trailing comment
            # an indented comment


        y = 2
        """
    assert count(source) == 2


def test_each_line_of_a_multiline_call_counted():
    source = """
        total = sum(
            [
                1,
                2,
            ]
        )
        """
    assert count(source) == 6


def test_string_that_is_not_a_docstring_counted():
    source = '''
        def f():
            x = 1
            """A string after the first statement is not a docstring."""
            text = """spread
        over
        three lines"""
            return text
        '''
    # def, x, the bare string, the three lines of text, return
    assert count(source) == 7


def test_main_total_is_the_sum_of_its_rows(tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\ny = 2\n')
    (tmp_path / "sub" / "b.py").write_text("# comment\nz = (\n    3\n)\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines]
    assert rows[-1][1] == "total"
    counts = {path: int(n) for n, path in rows[:-1]}
    assert counts == {"a.py": 2, str(Path("sub") / "b.py"): 3}
    assert int(rows[-1][0]) == sum(counts.values())
