"""Run one orbilens command in a child process and report what it cost.

    python tools/peak_rss.py sweep 4096 4096 --mode rigidity --format json-lines

runs ``python -m orbilens.cli`` with the given arguments, the package
imported from this checkout's ``src``, with stdout piped and hashed as
it streams and stderr passed through.  It prints one JSON line: the
child's exit code, its wall seconds, its peak resident set size
(``ru_maxrss`` of that child alone, in MB of 2^20 bytes), the stdout
byte count and the stdout sha256.  Two checkouts compare by running
each one's copy of this script on the same command.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CHUNK = 1 << 16


def measure(argv: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    digest, size = hashlib.sha256(), 0
    started = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "orbilens.cli", *argv],
                             stdout=subprocess.PIPE, env=env)
    with child.stdout:
        for chunk in iter(lambda: child.stdout.read(CHUNK), b""):
            digest.update(chunk)
            size += len(chunk)
    # wait4 reaps the child and returns its own resource usage; Linux
    # reports ru_maxrss in KiB.
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": child.returncode,
        "wall_s": round(time.perf_counter() - started, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "stdout_bytes": size,
        "stdout_sha256": digest.hexdigest(),
    }


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    print(json.dumps(measure(argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
