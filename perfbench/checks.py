"""Output checks: seed-commit digests and independent invariants.

Every check returns a list of problems; an operation with any problem
counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import oracle

# sha256 of the json-lines stdout at the seed commit, plus invariants
# that hold independently of the bytes.
SWEEP_EXPECT = {
    "heat-195-4d": {
        "sha256": "6685792119bb564bcf7b0e9adceae3ffdc538496327bb6321f6435bdab5529d6",
        "orders": 1,
        "classes": 87,
        "pairs_checked": 3741,
        "findings": 380,
        # The paper's q = 195 pair, L(195:3,5) and L(195:6,35).
        "includes": (195, (3, 5), (6, 35)),
    },
}


class Oracle:
    """Memoised reference answers for one run."""

    def __init__(self):
        self._mult: dict = {}
        self._canon: dict = {}

    def multiplicities(self, q, rots, padding, kmax=0):
        """m(0..K) with K at least both kmax and the certifying depth 4q + 2."""
        key = (q, tuple(rots), padding)
        depth = max(kmax, 4 * q + 2)
        if key not in self._mult or self._mult[key].size <= depth:
            self._mult[key] = oracle.multiplicities(q, key[1], padding, depth)
        # Cut to the requested depth: two spaces compared with each other
        # must give series of equal length, whatever was cached before.
        return self._mult[key][: depth + 1]

    def canonical(self, q, rots):
        key = (q, tuple(rots))
        if key not in self._canon:
            self._canon[key] = oracle.canonical(q, key[1])
        return self._canon[key]


def _first_difference(a, b):
    diff = (a != b).nonzero()[0]
    return int(diff[0]) if diff.size else None


def check_sweep(workload: str, stdout: str, ref: Oracle) -> list[str]:
    expect = SWEEP_EXPECT[workload]
    problems = []
    if hashlib.sha256(stdout.encode()).hexdigest() != expect["sha256"]:
        problems.append("stdout differs from the seed-commit output")
    try:
        recs = [json.loads(line) for line in stdout.splitlines()]
    except ValueError as exc:
        return problems + [f"stdout is not json-lines: {exc}"]
    summary = recs[-1] if recs else {}
    per_q = [r for r in recs if r.get("record") == "per_q"]
    pairs = [r for r in recs if r.get("record") == "pair"]
    for key in ("classes", "pairs_checked", "findings"):
        if summary.get(key) != expect[key]:
            problems.append(f"summary {key}={summary.get(key)}, expected {expect[key]}")
    if len(per_q) != expect["orders"] or sum(r["classes"] for r in per_q) != expect["classes"]:
        problems.append("per_q records do not add up to the expected orders and classes")
    if len(pairs) != expect["findings"]:
        problems.append(f"{len(pairs)} pair records, expected {expect['findings']}")
    found = set()
    for rec in pairs:
        problems += _check_finding(rec, ref)
        q = rec["q"]
        found.add((q, frozenset(ref.canonical(q, rec[s]["rotations"]) for s in ("first", "second"))))
    if "includes" in expect:
        q, a, b = expect["includes"]
        if (q, frozenset((ref.canonical(q, a), ref.canonical(q, b)))) not in found:
            problems.append(f"L({q}:{a}) | L({q}:{b}) missing from the findings")
    return problems


def _check_finding(rec: dict, ref: Oracle) -> list[str]:
    """A heat-degenerate finding must be non-isometric and first differ at k."""
    q, pad = rec["q"], rec["first"]["padding"]
    a, b = rec["first"]["rotations"], rec["second"]["rotations"]
    label = f"L({q}:{a}) | L({q}:{b})"
    if ref.canonical(q, a) == ref.canonical(q, b):
        return [f"{label}: reported pair is isometric"]
    k = _first_difference(ref.multiplicities(q, a, pad), ref.multiplicities(q, b, pad))
    if rec["isospectral"] or rec["isometric"] or k != rec["first_differing_k"]:
        return [f"{label}: first differing k is {k}, record says {rec['first_differing_k']}"]
    return []


def check_query(argv: list[str], stdout: str, ref: Oracle) -> list[str]:
    """Check one json-lines envelope against the reference answers."""
    try:
        lines = stdout.splitlines()
        if len(lines) != 1:
            return [f"expected one output line, got {len(lines)}"]
        env = json.loads(lines[0])
        if env["command"] != argv[0]:
            return [f"command {env['command']!r} != {argv[0]!r}"]
        return _CHECKS[argv[0]](_parse(argv), env["inputs"], env["result"], ref)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def _parse(argv):
    q = int(argv[1])
    a = [int(argv[2]), int(argv[3])]
    pad = int(argv[argv.index("--padding") + 1])
    b = [int(t) for t in argv[argv.index("--") + 1 :]] if "--" in argv else None
    kmax = int(argv[argv.index("--kmax") + 1]) if "--kmax" in argv else None
    return q, a, b, pad, kmax


def _lens(q, rots, pad):
    return {"q": q, "rotations": list(rots), "padding": pad}


def _check_spectrum(parsed, inputs, result, ref):
    q, a, _, pad, kmax = parsed
    if inputs != {"space": _lens(q, a, pad), "kmax": kmax} or result["space"] != inputs["space"]:
        return ["inputs not echoed"]
    mult = ref.multiplicities(q, a, pad, kmax)
    want = [
        {"k": k, "eigenvalue": k * (k + 2 + pad), "multiplicity": int(mult[k])}
        for k in range(kmax + 1)
    ]
    return [] if result["rows"] == want else ["spectrum rows differ from the lattice count"]


def _check_isospectral(parsed, inputs, result, ref):
    q, a, b, pad, _ = parsed
    if inputs != {"first": _lens(q, a, pad), "second": _lens(q, b, pad)}:
        return ["inputs not echoed"]
    k = _first_difference(ref.multiplicities(q, a, pad), ref.multiplicities(q, b, pad))
    dec = result["decision"]
    got = (result["verdict"], dec["isospectral"], dec["first_differing_k"], dec["checked_upto"])
    want = (k is None, k is None, k, 4 * q + 2)
    return [] if got == want else [f"isospectral decision {got}, expected {want}"]


def _check_isometric(parsed, inputs, result, ref):
    q, a, b, pad, _ = parsed
    if inputs != {"first": _lens(q, a, pad), "second": _lens(q, b, pad)}:
        return ["inputs not echoed"]
    same = ref.canonical(q, a) == ref.canonical(q, b)
    w = result["witness"]
    if result["verdict"] != same or (w is None) == same:
        return [f"isometric verdict {result['verdict']}, expected {same}"]
    if w and oracle.apply_witness(q, a, w["unit"], w["signs"], w["permutation"]) != tuple(b):
        return [f"witness {w} does not map the first space onto the second"]
    return []


def _check_heat(parsed, inputs, result, ref):
    q, a, _, pad, _ = parsed
    if inputs != {"space": _lens(q, a, pad), "order": 3} or result["space"] != inputs["space"]:
        return ["inputs not echoed"]
    problems = []
    if (result["alpha"], result["beta"]) != oracle.isotropy(q, tuple(a)):
        problems.append("isotropy orders differ from the gcd decomposition")
    if [t["exponent"] for t in result["terms"]] != ["-3/2", "-1/2", "1/2"]:
        problems.append("unexpected heat exponents")
    for t in result["terms"]:
        value = float(Fraction(t["inv_pi"])) / math.pi
        value += float(Fraction(t["sqrt_pi"])) * math.sqrt(math.pi)
        if not math.isclose(float(t["decimal"]), value, rel_tol=1e-12, abs_tol=1e-300):
            problems.append(f"decimal {t['decimal']} does not match {t['inv_pi']}, {t['sqrt_pi']}")
    return problems


_CHECKS = {
    "spectrum": _check_spectrum,
    "isospectral": _check_isospectral,
    "isometric": _check_isometric,
    "heat": _check_heat,
}
