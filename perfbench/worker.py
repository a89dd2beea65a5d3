"""One fresh benchmark worker: import orbilens, run CLI operations, report.

Usage: ``python3 worker.py SPAWNED_MONOTONIC < spec.json``.  The spec
names ``argvs`` (CLI argument lists run in order through
``orbilens.cli.main``), optionally a ``deadline_s`` after which no new
operation starts, ``trace`` and ``recheck``.  The worker prints one JSON
object on its real stdout when it ends.
"""

import io
import json
import sys
import time

SPAWNED = float(sys.argv[1])

import orbilens  # noqa: E402
import orbilens.cli  # noqa: E402

SETUP_S = time.monotonic() - SPAWNED

import resource  # noqa: E402

from tracing import Tracer  # noqa: E402


def _recheck(stdout: str) -> list[str]:
    """Re-decide every reported pair with the library's own verdicts."""
    problems = []
    for line in stdout.splitlines():
        rec = json.loads(line)
        if rec.get("record") != "pair":
            continue
        first, second = (
            orbilens.LensSpace(rec[s]["q"], tuple(rec[s]["rotations"]), rec[s]["padding"])
            for s in ("first", "second")
        )
        if orbilens.is_isometric(first, second) is not None:
            problems.append(f"{first} | {second}: reported pair is isometric")
        decision = orbilens.is_isospectral(first, second)
        if decision.isospectral or decision.first_differing_k != rec["first_differing_k"]:
            problems.append(f"{first} | {second}: is_isospectral gives {decision}")
    return problems


def main() -> None:
    spec = json.load(sys.stdin)
    tracer = Tracer() if spec.get("trace") else None
    absent = tracer.install(dict(sys.modules)) if tracer else []
    real_stdout, real_stderr = sys.stdout, sys.stderr
    deadline = spec.get("deadline_s")
    ops = []
    started = time.perf_counter()
    for argv in spec["argvs"]:
        if deadline is not None and ops and time.perf_counter() - started >= deadline:
            break
        out = io.StringIO()
        sys.stdout, sys.stderr = out, io.StringIO()
        t0 = time.perf_counter()
        try:
            if tracer:
                with tracer.span("cli"):
                    code = orbilens.cli.main(argv)
            else:
                code = orbilens.cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - reported as a failed operation
            code = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        sys.stdout, sys.stderr = real_stdout, real_stderr
        ops.append({"argv": argv, "latency_s": latency, "code": code, "stdout": out.getvalue()})
    spans = list(tracer.spans) if tracer else []
    recheck = []
    if spec.get("recheck"):
        for op in ops:
            recheck.extend(_recheck(op["stdout"]))
    json.dump(
        {
            "setup_s": SETUP_S,
            "orbilens_file": orbilens.__file__,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops": ops,
            "spans": spans,
            "absent": absent,
            "recheck": recheck,
        },
        real_stdout,
    )


if __name__ == "__main__":
    main()
