"""Time two checkouts on the same seeded CLI queries, in alternating workers.

    python tools/query_ab.py PARENT CHANGE --seed 101 --count 2000 --rounds 5

PARENT and CHANGE are checkout roots, each with its own ``src/orbilens``.
The commands are the first COUNT of ``perfbench/workloads.py``'s
``query_stream(SEED, COUNT)``, read from this checkout.  Each round
starts one fresh worker process per checkout, the parent first in even
rounds and the change first in odd ones.  A worker imports the package
from its checkout's ``src`` alone (it is this script, run as
``query_ab.py --serve SRC``) and answers every command in process through
``orbilens.cli.main``, timing each call.

One JSON line is printed per worker: its round, tree, p50 latency in ms,
the p50 of each command kind (the subcommand: spectrum, isospectral,
isometric, heat), total seconds, and the sha256 of its outputs (each
command's exit code, stdout and stderr, in order).  A last line gives
each tree's median p50 over the rounds, and each kind's, the rounds the
change was faster, and whether every output hash agreed.  The exit code is 1 if the trees' outputs differ,
0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("parent", "change")


def serve(src: str) -> dict:
    """Answer the JSON list of argvs on stdin with this process's orbilens."""
    import orbilens.cli

    if not Path(orbilens.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported orbilens from {orbilens.cli.__file__}, not {src}")
    digest = hashlib.sha256()
    latencies, by_kind = [], {}
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            started = time.perf_counter()
            code = orbilens.cli.main(argv)
            latencies.append(time.perf_counter() - started)
        by_kind.setdefault(argv[0], []).append(latencies[-1])
        digest.update(json.dumps([code, out.getvalue(), err.getvalue()]).encode() + b"\n")
    return {
        "p50_ms": round(statistics.median(latencies) * 1000, 4),
        "p50_ms_by_kind": {kind: round(statistics.median(times) * 1000, 4)
                           for kind, times in sorted(by_kind.items())},
        "total_s": round(sum(latencies), 3),
        "sha256": digest.hexdigest(),
    }


def run_worker(checkout: Path, commands: bytes) -> dict:
    src = checkout / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    res = subprocess.run([sys.executable, __file__, "--serve", str(src)], input=commands,
                         capture_output=True, env=env, check=False)
    if res.returncode != 0:
        raise SystemExit(f"worker for {checkout} exited {res.returncode}:\n"
                         f"{res.stderr.decode()[-2000:]}")
    return json.loads(res.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout root of the parent")
    parser.add_argument("change", type=Path, help="checkout root of the change")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "orbilens" / "__init__.py").is_file():
            parser.error(f"no orbilens sources under {checkout / 'src'}")
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import query_stream

    commands = json.dumps(query_stream(args.seed, args.count)).encode()
    p50s = {tree: [] for tree in TREES}
    kinds = {tree: {} for tree in TREES}
    hashes = set()
    for rnd in range(args.rounds):
        order = TREES if rnd % 2 == 0 else TREES[::-1]
        for tree in order:
            report = run_worker(getattr(args, tree), commands)
            p50s[tree].append(report["p50_ms"])
            for kind, p50 in report["p50_ms_by_kind"].items():
                kinds[tree].setdefault(kind, []).append(p50)
            hashes.add(report["sha256"])
            print(json.dumps({"round": rnd, "tree": tree, **report}), flush=True)
    identical = len(hashes) == 1
    print(json.dumps({
        "parent_p50_ms": statistics.median(p50s["parent"]),
        "change_p50_ms": statistics.median(p50s["change"]),
        **{f"{tree}_p50_ms_by_kind": {kind: statistics.median(v) for kind, v in kinds[tree].items()}
           for tree in TREES},
        "change_faster": sum(c < p for p, c in zip(p50s["parent"], p50s["change"])),
        "rounds": args.rounds,
        "identical": identical,
    }))
    return 0 if identical else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--serve"]:
        print(json.dumps(serve(sys.argv[2])))
    else:
        sys.exit(main())
