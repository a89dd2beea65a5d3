"""The child-process measuring tool in ``tools/peak_rss.py``."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from orbilens.cli import main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "peak_rss.py"


def measure(*argv):
    res = subprocess.run([sys.executable, str(TOOL), *argv], capture_output=True, text=True,
                         check=True)
    return json.loads(res.stdout), res.stderr


def test_reports_the_stdout_of_cli_main(capsys):
    argv = ["spectrum", "7", "1", "2", "--kmax", "3"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode()
    report, _ = measure(*argv)
    assert report["exit"] == 0
    assert report["stdout_bytes"] == len(expected)
    assert report["stdout_sha256"] == hashlib.sha256(expected).hexdigest()
    assert report["wall_s"] > 0 and report["peak_rss_mb"] > 0


def test_reports_a_refusal_and_passes_its_stderr_through():
    report, err = measure("spectrum", "7", "1", "2", "--padding", "-1")
    assert (report["exit"], report["stdout_bytes"]) == (2, 0)
    assert report["stdout_sha256"] == hashlib.sha256(b"").hexdigest()
    assert err == "error: padding must be >= 0, got -1\n"
