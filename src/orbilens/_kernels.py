"""Hot integer kernels: harmonic multiplicities per degree.

The multiplicities are the lag-2 differences of the counts, per degree
m, of the monomials ``prod_j x_j^{e_j}`` whose weighted exponent sum is
0 mod q.  Each rotation block contributes a variable pair with residue
weights ``+p`` and ``q - p``; each padded coordinate a variable of
weight 0.  Counts stay exact in int64; degrees that could overflow that
range are refused up front with :class:`CountingRangeExceeded`.

In :func:`multiplicities`, the one entry, two rotation blocks are
counted as 1-norm lattice points, following Lauret, Miatello and
Rossetti, "Spectra of lens spaces from 1-norm spectra of congruence
lattices" (IMRN 2016): an exponent tuple (a1, b1, a2, b2) is invariant
exactly when (u, v) = (a1 - b1, a2 - b2) lies in the congruence lattice

    L = {(u, v) : p1 u + p2 v = 0 mod q},

and the tuples of degree m over a point of 1-norm j number
(m - j)/2 + 1 when m - j is even and non-negative.  So the invariant
counts are the 1-norm counts N(j) of L summed twice over j = m mod 2,
and the multiplicities N summed once.  Time and memory are
O(mmax), independent of q.

Any other number of variables goes through :func:`invariant_series`,
the coin-change dynamic program

    count[m][r] += count[m-1][(r - w) mod q]

applied for ascending m, one numpy row of q residues at a time.  It
serves one rotation block, three or more; its (mmax + 1) x q table is
capped at MAX_TABLE_CELLS, and so is (mmax + 1) x variables for every
count.

Every series step is one call of :func:`times_one_minus_zd`, the product
with (1 - z^d)^power: the lag-step sums that build N, the lag-2 sum or
difference that turns counts into multiplicities, and one prefix sum per
padded coordinate.  More padded coordinates than degrees are added as
one binomial-weighted convolution instead.  :mod:`orbilens.spectrum`
runs the same operator on object arrays for the exact generating
function and its pole orders.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _integer
from .errors import CountingRangeExceeded, PreconditionViolated

# Largest counting table, in int64 cells (128 MiB): the dynamic program's
# (mmax + 1) x q residues, and (mmax + 1) x variables for any count, which
# bounds the per-variable passes of both kernels.
MAX_TABLE_CELLS = 1 << 24


def _check_range(q: int, kmax: int, nvars: int) -> None:
    if q < 1:
        raise PreconditionViolated(f"q must be >= 1, got {q}")
    if _integer(kmax, "kmax") < 0:
        raise PreconditionViolated(f"kmax must be >= 0, got {kmax}")
    if (kmax + 1) * nvars > MAX_TABLE_CELLS:
        raise CountingRangeExceeded(
            f"degree {kmax} with {nvars} variables needs {kmax + 1} x {nvars} "
            f"counting cells, above the {MAX_TABLE_CELLS} cell limit"
        )
    # Counts are bounded by the unrestricted compositions of kmax.
    if nvars and math.comb(kmax + nvars - 1, nvars - 1) >= 2**63:
        raise CountingRangeExceeded(
            f"degree {kmax} with {nvars} variables exceeds the int64 counting range"
        )


def invariant_series(weights, q: int, mmax: int) -> np.ndarray:
    """Series of invariant-monomial counts for degrees 0..mmax.

    ``weights`` holds one residue per variable.  Result entry m is the
    number of exponent tuples of total degree m whose weighted sum
    vanishes mod q.
    """
    _check_range(q, mmax, len(weights))
    if (mmax + 1) * q > MAX_TABLE_CELLS:
        raise CountingRangeExceeded(
            f"degree {mmax} at order {q} needs a {mmax + 1} x {q} counting table, "
            f"above the {MAX_TABLE_CELLS} cell limit"
        )
    w = np.asarray(weights, dtype=np.int64) % q
    cur = np.zeros((mmax + 1, q), np.int64)
    cur[0, 0] = 1
    for shift in w.tolist():
        for m in range(1, mmax + 1):
            # cur[m] += np.roll(cur[m - 1], shift), without the temporary.
            cur[m, shift:] += cur[m - 1, : q - shift]
            cur[m, :shift] += cur[m - 1, q - shift :]
    return cur[:, 0].copy()


def times_one_minus_zd(a: np.ndarray, d: int, power: int) -> np.ndarray:
    """Power series ``a * (1 - z^d)^power`` to len(a) terms, in a's dtype.

    Laid out as rows of d degrees, multiplying by (1 - z^d) is a
    difference down the rows and dividing by it a prefix sum down the
    rows; each step runs in place on one padded copy.  Object arrays
    stay exact in Python integers.
    """
    n = len(a)
    if d >= n:
        return a.copy()
    flat = np.zeros(-(-n // d) * d, a.dtype)
    flat[:n] = a
    rows = flat.reshape(-1, d)
    for _ in range(power):
        rows[1:] -= rows[:-1]
    for _ in range(-power):
        rows.cumsum(axis=0, out=rows)
    return flat[:n]


def _norm_counts(p1: int, p2: int, q: int, jmax: int) -> np.ndarray:
    """N(j) = #{(u, v) : p1 u + p2 v = 0 mod q, |u| + |v| = j} for j = 0..jmax.

    Solves for the coordinate x whose progression step q / gcd(coeff, q)
    is coarser, row by row of the other coordinate y.  On an admissible
    row the solutions x >= 0 and x < 0 are two progressions of that step
    starting at 1-norms |y| + x0 and |y| + step - x0, so N is the count
    of start points per norm, summed at lag ``step``.
    """
    a, b = p1 % q, p2 % q
    if q // math.gcd(b, q) > q // math.gcd(a, q):
        a, b = b, a
    g = math.gcd(a, q)
    step = q // g
    # Row y is admissible when g divides b*y: y = h*t for t >= 0.
    h = g // math.gcd(g, b)
    # There x0 = (-(b/g) y * (a/g)^-1) mod step = (c t) mod step.
    c = (-(b // math.gcd(g, b)) * pow(a // g, -1, step)) % step
    tmax = jmax // h
    # Offsets that could pass 2^63 stay exact as Python integers; a start
    # past jmax is never counted, so only the rest become int64.
    big = max(c * tmax, h, step + jmax) >= 2**63
    t = np.arange(tmax + 1, dtype=object if big else np.int64)
    x0 = (c * t) % step
    y = h * t
    starts = np.concatenate((y + x0, y + (step - x0)))
    starts = starts[starts <= jmax].astype(np.int64, copy=False)
    # Rows -y and y give the same pair of starts, so every row counts
    # twice except y = 0, whose starts are 0 and step.
    first = 2 * np.bincount(starts, minlength=jmax + 1)
    first[0] -= 1
    if step <= jmax:
        first[step] -= 1
    return times_one_minus_zd(first, step, -1)


def multiplicities(rotations, q: int, padding: int, kmax: int) -> np.ndarray:
    """Harmonic multiplicities for degrees 0..kmax of a lens-space quotient.

    Entry k is the invariant-monomial count at degree k minus the count
    at degree k - 2 for the weights ``+-p`` per rotation and ``padding``
    zeros.
    """
    _check_range(q, kmax, 2 * len(rotations) + padding)
    if len(rotations) == 2:
        mult = times_one_minus_zd(_norm_counts(*rotations, q, kmax), 2, -1)
    else:
        counts = invariant_series([w for p in rotations for w in (p, -p)], q, kmax)
        mult = times_one_minus_zd(counts, 2, 1)
    # A padded coordinate multiplies the series by 1 / (1 - z), which
    # commutes with the lag-2 difference.  Past kmax coordinates, one
    # convolution with the coefficients C(i + W - 1, i) of 1 / (1 - z)^W
    # is cheaper than W prefix sums.  It stays in int64: mult[0] = 1, so
    # every weight, product and partial sum is at most a padded
    # multiplicity, which _check_range bounds.
    if padding > kmax:
        weights = [1]
        for i in range(1, kmax + 1):
            weights.append(weights[-1] * (padding + i - 1) // i)
        return np.convolve(mult, np.array(weights, np.int64))[: kmax + 1]
    return times_one_minus_zd(mult, 1, -padding)
