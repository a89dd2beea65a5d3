"""Hot integer kernels: invariant-monomial counts per total degree.

The series counts, per total degree m, the monomials
``prod_j x_j^{e_j}`` whose weighted exponent sum is 0 mod q.  Each
rotation block contributes a variable pair with residue weights ``+p``
and ``q - p``; each padded coordinate a variable of weight 0.  Counts
stay exact in int64; degrees that could overflow that range are refused
up front with :class:`CountingRangeExceeded`.

Two rotation blocks (:func:`lattice_series`) are counted as 1-norm
lattice points, following Lauret, Miatello and Rossetti, "Spectra of
lens spaces from 1-norm spectra of congruence lattices" (IMRN 2016):
an exponent tuple (a1, b1, a2, b2) is invariant exactly when
(u, v) = (a1 - b1, a2 - b2) lies in the congruence lattice

    L = {(u, v) : p1 u + p2 v = 0 mod q},

and the tuples of degree m over a point of 1-norm j number
(m - j)/2 + 1 when m - j is even and non-negative.  So the invariant
counts are the 1-norm counts N(j) of L summed twice over j = m mod 2,
then summed once more per padded coordinate.  Time and memory are
O(mmax), independent of q.

Any other number of variables goes through :func:`invariant_series`,
the coin-change dynamic program

    count[m][r] += count[m-1][(r - w) mod q]

applied for ascending m, one numpy row of q residues at a time.  It
serves one rotation block, three or more, and weight vectors given
directly; its (mmax + 1) x q table is capped at MAX_TABLE_CELLS, and so
is (mmax + 1) x variables for both kernels.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CountingRangeExceeded, PreconditionViolated

# Largest counting table, in int64 cells (128 MiB): the dynamic program's
# (mmax + 1) x q residues, and (mmax + 1) x variables for any count, which
# bounds the per-variable passes of both kernels.
MAX_TABLE_CELLS = 1 << 24


def _check_range(q: int, mmax: int, nvars: int) -> None:
    if q < 1:
        raise PreconditionViolated(f"q must be >= 1, got {q}")
    if mmax < 0:
        raise PreconditionViolated(f"mmax must be >= 0, got {mmax}")
    if (mmax + 1) * nvars > MAX_TABLE_CELLS:
        raise CountingRangeExceeded(
            f"degree {mmax} with {nvars} variables needs {mmax + 1} x {nvars} "
            f"counting cells, above the {MAX_TABLE_CELLS} cell limit"
        )
    # Counts are bounded by the unrestricted compositions of mmax.
    if nvars and math.comb(mmax + nvars - 1, nvars - 1) >= 2**63:
        raise CountingRangeExceeded(
            f"degree {mmax} with {nvars} variables exceeds the int64 counting range"
        )


def invariant_series(weights, q: int, mmax: int) -> np.ndarray:
    """Series of invariant-monomial counts for degrees 0..mmax.

    ``weights`` holds one residue per variable.  Result entry m is the
    number of exponent tuples of total degree m whose weighted sum
    vanishes mod q.
    """
    _check_range(q, mmax, len(weights))
    w = np.asarray(weights, dtype=np.int64) % q
    if (mmax + 1) * q > MAX_TABLE_CELLS:
        raise CountingRangeExceeded(
            f"degree {mmax} at order {q} needs a {mmax + 1} x {q} counting table, "
            f"above the {MAX_TABLE_CELLS} cell limit"
        )
    cur = np.zeros((mmax + 1, q), np.int64)
    cur[0, 0] = 1
    for shift in w.tolist():
        for m in range(1, mmax + 1):
            # cur[m] += np.roll(cur[m - 1], shift), without the temporary.
            cur[m, shift:] += cur[m - 1, : q - shift]
            cur[m, :shift] += cur[m - 1, q - shift :]
    return cur[:, 0].copy()


def _lag_cumsum(a: np.ndarray, lag: int) -> np.ndarray:
    """out[j] = a[j] + a[j - lag] + a[j - 2 lag] + ..."""
    n = len(a)
    if lag >= n:
        return a.copy()
    padded = np.zeros(-(-n // lag) * lag, np.int64)
    padded[:n] = a
    return padded.reshape(-1, lag).cumsum(axis=0).ravel()[:n]


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
    t = np.arange(jmax // h + 1, dtype=np.int64)
    if c * int(t[-1]) < 2**63:
        x0 = (c * t) % step
    else:
        x0 = np.array([(c * i) % step for i in t.tolist()], np.int64)
    y = h * t
    starts = np.concatenate((y + x0, y + (step - x0)))
    # Rows -y and y give the same pair of starts, so every row counts
    # twice except y = 0, whose starts are 0 and step.
    first = 2 * np.bincount(starts[starts <= jmax], minlength=jmax + 1)
    first[0] -= 1
    if step <= jmax:
        first[step] -= 1
    return _lag_cumsum(first.astype(np.int64, copy=False), step)


def lattice_series(p1: int, p2: int, q: int, padding: int, mmax: int) -> np.ndarray:
    """Invariant-monomial counts for degrees 0..mmax of two rotation blocks.

    Equal, bit for bit, to :func:`invariant_series` with weights
    ``(p1, -p1, p2, -p2)`` followed by ``padding`` zeros.
    """
    _check_range(q, mmax, 4 + padding)
    counts = _norm_counts(p1, p2, q, mmax)
    counts = _lag_cumsum(_lag_cumsum(counts, 2), 2)
    for _ in range(padding):
        counts = np.cumsum(counts)
    return counts
