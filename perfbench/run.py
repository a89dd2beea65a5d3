"""Layered benchmark for orbilens.

Usage (from the repository root):

    python3 perfbench/run.py --workload {heat-195-4d,queries} \
        --seed N --seconds S --trace {0,1}

Every operation goes through ``orbilens.cli.main`` in a fresh
single-threaded worker process (see worker.py).  With ``--trace 0`` the
last stdout line holds the end-to-end metrics; with ``--trace 1`` each
traced worker is paired with an untraced one on the same operations,
and the last line holds per-layer metrics taken from the spans.
Outputs are checked on every run; a wrong output counts as a failure.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy

import checks
import workloads
from tracing import NAME, NOTE, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3  # before and after the operations
MIN_SWEEPS = 3
QUERY_POOL = 20000
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Span names whose self time and call count are reported per operation.
TIMED_CALLS = (
    "spectrum.multiplicity_series",
    "core.canonical_form",
    "heat.same_heat_expansion",
    "spectrum.is_isospectral",
    "search.isometry_classes",
)
SELF_ONLY = (
    "search.sweep_stream",
    "core.is_isometric",
    "heat.heat_expansion_3d",
    "spectrum.spectrum_table",
    "records",
    "cli",
)
PER_LAYER_UNITS = {
    **{f"{n}.self_s": "s" for n in TIMED_CALLS + SELF_ONLY},
    **{f"{n}.calls": "count" for n in TIMED_CALLS},
    "spectrum.multiplicity_series.repeat_ratio": "ratio",
    "heat.same_heat_expansion.equal_ratio": "ratio",
    "decision.confirm_yield": "ratio",
    "search.per_q_ms.p50": "ms",
    "search.per_q_ms.max": "ms",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (for example, no program to run)."""


# Unset for workers: orbilens' own switches, and bytecode-cache settings
# (cached bytecode goes to __pycache__ inside the checkout, as after an install).
UNSET = ("ORBILENS_THREADS", "ORBILENS_PURE_NUMPY", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(spec: dict, env: dict) -> dict:
    """Run one fresh worker on ``spec`` and return its report."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), repr(spawned)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(json.dumps(spec).encode(), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: {err.decode()[-2000:]}")
    report = json.loads(out)
    if not Path(report["orbilens_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"imported orbilens from {report['orbilens_file']}, not {SRC}")
    return report


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "orbilens").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "record": "run",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest(),
    }


# --- operations -----------------------------------------------------------


def probe_setup(env) -> list[float]:
    """Start-up times of workers that import orbilens and do nothing else."""
    return [spawn({"argvs": []}, env)["setup_s"] for _ in range(SETUP_PROBES)]


def run_sweeps(workload, seconds, trace, env):
    """Fresh-worker sweeps, closed loop, until the next would overrun ``seconds``."""
    spec = {"argvs": [workloads.sweep_argv(workload)], "recheck": True}
    plain, traced = [], []
    started = time.monotonic()
    while True:
        plain.append(spawn(spec, env))
        if trace:
            traced.append(spawn({**spec, "trace": True}, env))
        elapsed = time.monotonic() - started
        rounds = len(plain)
        if (trace or rounds >= MIN_SWEEPS) and elapsed * (rounds + 1) / rounds > seconds:
            return plain, traced


def run_queries(seed, seconds, trace, env):
    """One closed-loop client: one worker answers queries until ``seconds``."""
    argvs = workloads.query_stream(seed, QUERY_POOL)
    budget = seconds / 2 if trace else seconds
    plain = [spawn({"argvs": argvs, "deadline_s": budget}, env)]
    traced = []
    if trace:
        done = len(plain[0]["ops"])
        traced.append(spawn({"argvs": argvs[:done], "trace": True}, env))
    return plain, traced


# --- checks ---------------------------------------------------------------


def check_ops(workload, reports):
    """Count operations and failed ones; also return a few problem strings.

    The same command must print the same bytes every time it runs in a
    run, traced or not.
    """
    ref = checks.Oracle()
    attempted = failed = 0
    problems = []
    seen = {}
    for report in reports:
        for i, op in enumerate(report["ops"]):
            attempted += 1
            found = [] if op["code"] == 0 else [f"exit code {op['code']}"]
            if workload in checks.SWEEP_EXPECT:
                found += checks.check_sweep(workload, op["stdout"], ref)
                found += report["recheck"]
            else:
                found += checks.check_query(op["argv"], op["stdout"], ref)
            if seen.setdefault(tuple(op["argv"]), op["stdout"]) != op["stdout"]:
                found.append("the same command gave different output")
            if found:
                failed += 1
                problems.append(f"{workload} op {i}: {found[:3]}")
    return attempted, failed, problems


# --- metrics --------------------------------------------------------------


def end_to_end(setups, reports) -> dict:
    latencies = [op["latency_s"] * 1000 for r in reports for op in r["ops"]]
    if len(latencies) < 2:
        raise BenchmarkError("fewer than two operations completed")
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p99_ms": statistics.quantiles(latencies, n=100, method="inclusive")[98],
        "ops_per_s": 1000 * len(latencies) / sum(latencies),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def layer_metrics(report) -> dict:
    """Per-operation layer figures from one traced worker's spans."""
    spans = report["spans"]
    ops = len(report["ops"]) or 1
    calls, own, notes = Counter(), defaultdict(float), defaultdict(list)
    per_q = []
    for span, self_s in zip(spans, self_times(spans)):
        name = span[NAME]
        own[name] += self_s
        if span[NOTE] == "stop":
            continue
        calls[name] += 1
        notes[name].append(span[NOTE])
        if name == "search.sweep_stream":
            per_q.append((span[2] - span[1]) * 1000)
    mult = notes["spectrum.multiplicity_series"]
    heat = notes["heat.same_heat_expansion"]
    findings = sum(
        json.loads(line).get("record") == "pair"
        for op in report["ops"]
        for line in op["stdout"].splitlines()
    )
    confirmations = calls["spectrum.is_isospectral"]
    out = {f"{n}.self_s": own[n] / ops for n in TIMED_CALLS + SELF_ONLY}
    out.update({f"{n}.calls": calls[n] / ops for n in TIMED_CALLS})
    out["spectrum.multiplicity_series.repeat_ratio"] = (
        1 - len(set(mult)) / len(mult) if mult else 0.0
    )
    out["heat.same_heat_expansion.equal_ratio"] = heat.count("equal") / len(heat) if heat else 0.0
    out["decision.confirm_yield"] = findings / confirmations if confirmations else 0.0
    out["search.per_q_ms.p50"] = statistics.median(per_q) if per_q else 0.0
    out["search.per_q_ms.max"] = max(per_q, default=0.0)
    out["cli.stdout_bytes"] = sum(len(op["stdout"].encode()) for op in report["ops"]) / ops
    return out


def per_layer(plain, traced) -> dict:
    rows = [layer_metrics(r) for r in traced]
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    plain_s = sum(op["latency_s"] for r in plain for op in r["ops"])
    traced_s = sum(op["latency_s"] for r in traced for op in r["ops"])
    out["trace.overhead_ratio"] = traced_s / plain_s
    return out


# --- main -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orbilens" / "__init__.py").is_file():
        print(f"error: no orbilens sources under {SRC}", file=sys.stderr)
        return 2
    record = environment(args)
    env = worker_env()
    try:
        spawn({"argvs": []}, env)  # warm-up: byte-compile, fill the file cache
        setups = probe_setup(env)
        if args.workload == "queries":
            plain, traced = run_queries(args.seed, args.seconds, args.trace, env)
        else:
            plain, traced = run_sweeps(args.workload, args.seconds, args.trace, env)
        setups += probe_setup(env) + [r["setup_s"] for r in plain + traced]
        if args.trace:
            values, units = per_layer(plain, traced), PER_LAYER_UNITS
        else:
            values, units = end_to_end(setups, plain), END_TO_END_UNITS
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, problems = check_ops(args.workload, plain + traced)
    for line in problems[:10]:
        print(line, file=sys.stderr)
    record.update({
        "operations": sum(len(r["ops"]) for r in plain),
        "traced_operations": sum(len(r["ops"]) for r in traced),
        "workers": len(plain) + len(traced),
        "absent": sorted({a for r in traced for a in r["absent"]}),
        "loadavg_end": os.getloadavg(),
    })
    print(json.dumps(record), flush=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
