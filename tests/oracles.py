"""Independent reference implementations used only by the tests.

Everything here recomputes results from first principles with code
disjoint from the library: raw tuple enumeration instead of the DP
kernel, literal orbit loops instead of the folded scan, and numeric
limits instead of closed forms.
"""

from __future__ import annotations

import cmath
import itertools
import math

from orbilens.core import LensSpace
from orbilens.spectrum import evaluate_F

# ---------------------------------------------------------------------------
# brute-force invariant-monomial counting


def brute_counts_weighted_py(q: int, p1: int, p2: int, mmax: int) -> list[int]:
    """Counts of (a1,b1,a2,b2) with given total degree and zero weight mod q."""
    n1 = (q - p1 % q) % q
    n2 = (q - p2 % q) % q
    out = [0] * (mmax + 1)
    for a1 in range(mmax + 1):
        r1 = (p1 % q) * a1 % q
        for b1 in range(mmax + 1 - a1):
            r2 = (r1 + n1 * b1) % q
            d2 = a1 + b1
            for a2 in range(mmax + 1 - d2):
                r3 = (r2 + (p2 % q) * a2) % q
                d3 = d2 + a2
                for b2 in range(mmax + 1 - d3):
                    if (r3 + n2 * b2) % q == 0:
                        out[d3 + b2] += 1
    return out


def brute_counts_general(q: int, rotations, mmax: int) -> list[int]:
    """Counts of (a_1, b_1, .., a_n, b_n) per total degree with
    sum p_i (a_i - b_i) = 0 mod q, for any number n of rotations."""
    weights = [w % q for p in rotations for w in (p, -p)]
    out = [0] * (mmax + 1)

    def walk(i: int, degree: int, residue: int) -> None:
        if i == len(weights):
            if residue == 0:
                out[degree] += 1
            return
        for e in range(mmax - degree + 1):
            walk(i + 1, degree + e, (residue + e * weights[i]) % q)

    walk(0, 0, 0)
    return out


def _apply_padding(cnt0, padding: int, mmax: int) -> list[int]:
    if padding == 0:
        return [int(c) for c in cnt0[: mmax + 1]]
    out = []
    for m in range(mmax + 1):
        total = 0
        for s in range(m + 1):
            total += int(cnt0[s]) * math.comb(m - s + padding - 1, padding - 1)
        out.append(total)
    return out


def brute_invariant_counts(space: LensSpace, mmax: int) -> list[int]:
    """Invariant-monomial counts per degree by raw tuple enumeration."""
    if space.n == 2:
        cnt0 = brute_counts_weighted_py(space.q, *space.rotations, mmax)
    else:
        cnt0 = brute_counts_general(space.q, space.rotations, mmax)
    return _apply_padding(cnt0, space.padding, mmax)


def brute_multiplicities(space: LensSpace, kmax: int) -> list[int]:
    counts = brute_invariant_counts(space, kmax)
    return [
        counts[k] - (counts[k - 2] if k >= 2 else 0) for k in range(kmax + 1)
    ]


# ---------------------------------------------------------------------------
# literal orbit enumeration for the isometry relation


def _normalize(x: int, q: int) -> int:
    return x % q


def orbit_vectors(space: LensSpace):
    """Every vector (l*sign*p permuted) of the isometry orbit, normalised mod q."""
    q = space.q
    n = space.n
    if q == 1:
        yield tuple([0] * n)
        return
    for l in range(1, q + 1):
        if math.gcd(l, q) != 1:
            continue
        for signs in itertools.product((1, -1), repeat=n):
            base = [(s * l * p) % q for s, p in zip(signs, space.rotations)]
            for perm in itertools.permutations(range(n)):
                yield tuple(base[perm[i]] for i in range(n))


def isometric_exhaustive(first: LensSpace, second: LensSpace) -> bool:
    if first.q != second.q:
        return False
    target = tuple(second.rotations)
    return any(v == target for v in orbit_vectors(first))


def canonical_exhaustive(space: LensSpace) -> tuple[int, ...]:
    return min(tuple(sorted(v)) for v in orbit_vectors(space))


# ---------------------------------------------------------------------------
# numeric limits and growth fits


def richardson(values, ratio: float = 10.0):
    """Extrapolate g(h) -> g(0) for h shrinking by ``ratio`` per sample."""
    table = [list(values)]
    for j in range(1, len(values)):
        prev = table[-1]
        table.append(
            [
                (ratio**j * prev[i + 1] - prev[i]) / (ratio**j - 1)
                for i in range(len(prev) - 1)
            ]
        )
    return table[-1][0]


def numeric_residue_limit(space: LensSpace, pole_exponent: int, ms=(4, 5, 6, 7)) -> complex:
    """lim (z - g) F(z) with z -> g radially, Richardson-extrapolated."""
    q = space.q
    g = cmath.exp(2j * cmath.pi * pole_exponent / q)
    vals = []
    for m in ms:
        z = g * (1.0 - 10.0**-m)
        vals.append((z - g) * evaluate_F(space, z))
    return richardson(vals)


def fitted_pole_order_at_one(gf, ms=(4, 5, 6, 7)) -> int:
    """Slope of log|F| against log h along z = 1 - 10^-m, exact evaluation."""
    from fractions import Fraction

    logs = []
    for m in ms:
        h = Fraction(1, 10**m)
        v = gf.evaluate(1 - h)
        logs.append(math.log(abs(float(v))))
    slopes = [
        (logs[i + 1] - logs[i]) / math.log(10.0) for i in range(len(logs) - 1)
    ]
    return round(sum(slopes) / len(slopes))
