"""The README's worked example and CLI lines run against the code as it is."""

import pathlib
import re

from orbilens.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_cli_lines_exit_0(capsys):
    block = re.search(r"^## CLI\n\n```\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = [line.split("#")[0].split() for line in block.group(1).splitlines()]
    assert commands and all(argv[0] == "orbilens" for argv in commands)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        capsys.readouterr()
