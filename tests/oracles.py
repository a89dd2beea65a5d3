"""Independent reference implementations used only by the tests.

Everything here recomputes results from first principles with code
disjoint from the library: raw tuple enumeration instead of the DP
kernel, literal orbit loops instead of the folded scan, a class count
by Burnside's lemma instead of enumeration, and numeric limits instead
of closed forms.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

import numpy as np

from orbilens.core import LensSpace
from orbilens.spectrum import evaluate_F, multiplicity_series

# ---------------------------------------------------------------------------
# brute-force invariant-monomial counting


def brute_counts_weighted_py(q: int, p1: int, p2: int, mmax: int) -> list[int]:
    """Counts of (a1,b1,a2,b2) with given total degree and zero weight mod q.

    Loops over a1, b1 and a2; the b2 that zero the weight form one
    progression mod q / gcd(q - p2, q), which is walked directly.
    :func:`brute_counts_four_loops` is its reference.
    """
    n1 = (q - p1 % q) % q
    n2 = (q - p2 % q) % q
    g = math.gcd(n2, q)
    step = q // g
    # n2 b2 = -r3 mod q has solutions iff g divides r3; then b2 = -(r3/g) inv mod step.
    inv = pow(n2 // g, -1, step) if step > 1 else 0
    out = [0] * (mmax + 1)
    for a1 in range(mmax + 1):
        r1 = (p1 % q) * a1 % q
        for b1 in range(mmax + 1 - a1):
            r2 = (r1 + n1 * b1) % q
            d2 = a1 + b1
            for a2 in range(mmax + 1 - d2):
                r3 = (r2 + (p2 % q) * a2) % q
                if r3 % g:
                    continue
                d3 = d2 + a2
                for b2 in range(-(r3 // g) * inv % step, mmax + 1 - d3, step):
                    out[d3 + b2] += 1
    return out


def brute_counts_four_loops(q: int, p1: int, p2: int, mmax: int) -> list[int]:
    """Counts of (a1,b1,a2,b2) with given total degree and zero weight mod q,
    every tuple enumerated."""
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


def marking_classes(q: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Canonical two-block class representatives of order q, by marking orbits.

    Scans the sign-folded sorted pairs 1 <= a <= b <= q // 2 with
    gcd(a, b, q) = 1 in ascending order.  The first pair not yet marked
    is the least member of its orbit, hence the canonical form; its
    whole orbit under the units is marked at once.  Returns the
    representatives in scan order and, for each, the number of rotation
    pairs 1 <= p1 <= p2 < q in its class: a folded entry a stands for
    a and q - a, one residue when a = q/2, and a pair (a, a) of two
    residues for three sorted pairs.
    """
    if q == 1:
        return [(0, 0)], [1]
    h = q // 2
    a, b = np.ogrid[: h + 1, : h + 1]
    todo = (0 < a) & (a <= b) & (np.gcd(np.gcd(a, q), b) == 1)
    residues = np.where(2 * np.arange(h + 1) == q, 1, 2)
    pairs = np.where(a == b, residues[:, None] * (residues[:, None] + 1) // 2,
                     residues[:, None] * residues[None, :]).ravel()
    flat = todo.ravel()
    ls = np.array([l for l in range(1, q) if math.gcd(l, q) == 1])
    reps, sizes = [], []
    at = 0
    while True:
        at += int(flat[at:].argmax())
        if not flat[at]:
            return reps, sizes
        p1, p2 = divmod(at, h + 1)
        x, y = ls * p1 % q, ls * p2 % q
        x, y = np.minimum(x, q - x), np.minimum(y, q - y)
        cells = np.minimum(x, y) * (h + 1) + np.maximum(x, y)
        flat[cells] = False
        reps.append((p1, p2))
        # The units form an abelian group, so every cell of the orbit is
        # reached by as many units as the representative's own cell.
        sizes.append(int(pairs[cells].sum()) // int(np.count_nonzero(cells == at)))


def burnside_classes(q: int) -> int:
    """Two-block isometry classes of order q, counted by Burnside's lemma.

    G = (units l mod q) x {+-1}^2 x S_2, of order 8 phi(q), acts on the
    pairs (p1, p2) of Z_q^2 with gcd(p1, p2, q) = 1.  Its orbits are the
    classes and, for q > 1, the one orbit of the pairs with a zero entry.
    Every count below is multiplicative over the prime powers p^k of q.

    - (l, s1, s2) fixes the pairs of H1 x H2, H_i the kernel of s_i l - 1,
      with gcd 1: a Moebius sum over d | q of |H1 ∩ dZ_q| |H2 ∩ dZ_q|.
      At p^k that is |H1| |H2| - |H1 ∩ pZ| |H2 ∩ pZ|, which is 0 unless
      l = s1 or l = s2 makes H1 or H2 the whole group.  So summed over l,
      equal signs fix J_2(q) = q^2 prod (1 - p^-2) pairs, and opposite
      signs the product of 2 phi(p^k) at odd p, 3 at q = 2 and 2^(k + 1)
      at 2^k, k >= 2.
    - With the swap, (l, s1, s2) fixes the phi(q) pairs (s1 l p2, p2),
      p2 a unit, when s1 s2 l^2 = 1 mod q, and none otherwise.
    """
    j2 = phi = opposite = roots_1 = roots_minus_1 = 1
    rest = q
    for p in range(2, q + 1):
        k = 0
        while rest % p == 0:
            rest //= p
            k += 1
        if not k:
            continue
        pk = p**k
        j2 *= pk * pk - pk * pk // (p * p)
        phi *= pk - pk // p
        if p > 2:
            opposite *= 2 * (pk - pk // p)
            roots_1 *= 2
            roots_minus_1 *= 2 if p % 4 == 1 else 0
        else:
            opposite *= 3 if k == 1 else 2 * pk
            roots_1 *= min(2 ** (k - 1), 4)
            roots_minus_1 *= 1 if k == 1 else 0
    # 2 J_2 + 2 opposite + 2 phi (roots of 1 + roots of -1), over 8 phi.
    orbits = (j2 + opposite + phi * (roots_1 + roots_minus_1)) // (4 * phi)
    return orbits - (q > 1)


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


# ---------------------------------------------------------------------------
# pole orders by cyclotomic cancellation


def _divide_monic(num, den) -> list[int]:
    """Exact quotient of integer polynomials (ascending coefficients)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        out[i] = num[i + len(den) - 1] // den[-1]
        for j, c in enumerate(den):
            num[i + j] -= out[i] * c
    assert not any(num), "division left a remainder"
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic(k: int) -> tuple[int, ...]:
    """Phi_k: z^k - 1 divided by Phi_d for every proper divisor d of k."""
    num = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            num = _divide_monic(num, cyclotomic(d))
    return tuple(num)


def _cancels_poles(space: LensSpace, exponents: dict[int, int]) -> bool:
    """Whether D * F is a polynomial, D = prod_k Phi_k^exponents[k].

    F has denominator (1 - z^q)^(2n), so past degree deg D + 2nq the
    coefficients of D * F are a quasi-polynomial of period q and degree
    below 2n; it is zero iff it vanishes on 2nq consecutive degrees.
    """
    d = np.array([1], dtype=np.int64)
    for k, r in exponents.items():
        for _ in range(r):
            d = np.convolve(d, np.array(cyclotomic(k), dtype=np.int64))
    deg = len(d) - 1
    window = 2 * space.n * space.q
    series = multiplicity_series(space, deg + 2 * window)
    return not np.convolve(d, series)[deg + window + 1 : deg + 2 * window + 1].any()


def pole_orders_certified(space: LensSpace, orders: dict[int, int]) -> bool:
    """Whether orders[k] is the exact pole order of the spectrum series at
    the primitive k-th roots of unity, for the divisors k given.

    D = prod Phi_k^orders[k] must clear every pole of F, and removing
    any single factor Phi_k of D must leave a pole.
    """
    if min(orders.values()) < 0 or not _cancels_poles(space, orders):
        return False
    return not any(
        _cancels_poles(space, {**orders, k: r - 1}) for k, r in orders.items() if r > 0
    )


# ---------------------------------------------------------------------------
# series products in Python integers


def times_one_minus_zd(coeffs, d: int, power: int) -> list[int]:
    """Power series coeffs * (1 - z^d)^power, exactly, to len(coeffs) terms.

    A positive power takes lag-d differences, a negative one lag-d prefix
    sums, one entry at a time in Python integers.
    """
    out = [int(c) for c in coeffs]
    for _ in range(power):
        for i in range(len(out) - 1, d - 1, -1):
            out[i] -= out[i - d]
    for _ in range(-power):
        for i in range(d, len(out)):
            out[i] += out[i - d]
    return out
