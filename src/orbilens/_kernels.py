"""Hot integer kernel: invariant-monomial counting by dynamic programming.

The series counts, per total degree m, the monomials
``prod_j x_j^{e_j}`` whose weighted exponent sum is 0 mod q.  Each
variable carries a residue weight (``+p``, ``q - p`` for the conjugate,
``0`` for a padded coordinate); exponents are unbounded, so the update
per variable is the coin-change recurrence

    count[m][r] += count[m-1][(r - w) mod q]

applied for ascending m, one numpy row at a time.  Counts stay exact in
int64; degrees that could overflow that range are refused up front.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CountingRangeExceeded, PreconditionViolated


def invariant_series(weights, q: int, mmax: int) -> np.ndarray:
    """Series of invariant-monomial counts for degrees 0..mmax.

    ``weights`` holds one residue per variable.  Result entry m is the
    number of exponent tuples of total degree m whose weighted sum
    vanishes mod q.
    """
    if q < 1:
        raise PreconditionViolated(f"q must be >= 1, got {q}")
    if mmax < 0:
        raise PreconditionViolated(f"mmax must be >= 0, got {mmax}")
    w = np.asarray(weights, dtype=np.int64) % q
    # Counts are bounded by the unrestricted compositions of mmax.
    if len(w) and math.comb(mmax + len(w) - 1, len(w) - 1) >= 2**63:
        raise CountingRangeExceeded(
            f"degree {mmax} with {len(w)} variables exceeds the int64 counting range"
        )
    cur = np.zeros((mmax + 1, q), np.int64)
    cur[0, 0] = 1
    for shift in w.tolist():
        for m in range(1, mmax + 1):
            cur[m] += np.roll(cur[m - 1], shift)
    return cur[:, 0].copy()
