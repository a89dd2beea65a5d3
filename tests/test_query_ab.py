"""The alternating query timer in ``tools/query_ab.py``, on two copies of one checkout."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "query_ab.py"


def copies(tmp_path):
    trees = []
    for name in ("parent", "change"):
        shutil.copytree(ROOT / "src" / "orbilens", tmp_path / name / "src" / "orbilens",
                        ignore=shutil.ignore_patterns("__pycache__"))
        trees.append(tmp_path / name)
    return trees


def run(*trees):
    res = subprocess.run(
        [sys.executable, str(TOOL), *map(str, trees), "--seed", "101", "--count", "40",
         "--rounds", "2"],
        capture_output=True, text=True, timeout=120,
    )
    return res.returncode, [json.loads(line) for line in res.stdout.splitlines()], res.stderr


def test_same_tree_twice_agrees_and_alternates(tmp_path):
    code, lines, err = run(*copies(tmp_path))
    assert code == 0, err
    *workers, summary = lines
    assert [(w["round"], w["tree"]) for w in workers] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent")
    ]
    assert len({w["sha256"] for w in workers}) == 1
    assert all(w["p50_ms"] > 0 for w in workers)
    assert summary["identical"] and summary["rounds"] == 2
    # Every command kind of the stream is timed on its own.
    kinds = {"heat", "isometric", "isospectral", "spectrum"}
    for by_kind in [w["p50_ms_by_kind"] for w in workers] + [
        summary[f"{tree}_p50_ms_by_kind"] for tree in ("parent", "change")
    ]:
        assert set(by_kind) == kinds and all(p50 > 0 for p50 in by_kind.values())


def test_differing_outputs_exit_1(tmp_path):
    parent, change = copies(tmp_path)
    cli = change / "src" / "orbilens" / "cli.py"
    # Every json-lines record of the change now has spaced separators.
    cli.write_text(cli.read_text() + "\n_jline = json.JSONEncoder(sort_keys=True).encode\n")
    code, lines, _ = run(parent, change)
    assert code == 1
    assert len({w["sha256"] for w in lines[:-1]}) == 2 and not lines[-1]["identical"]


def test_missing_sources_refused(tmp_path):
    code, lines, err = run(tmp_path, tmp_path)
    assert code == 2 and lines == []
    assert "no orbilens sources" in err
