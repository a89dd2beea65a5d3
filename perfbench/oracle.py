"""Reference answers for checking orbilens outputs, written without orbilens.

Multiplicities come from 1-norm counts on the congruence lattice
``L = {(u, v) : p1*u + p2*v = 0 mod q}`` (Lauret, Miatello, Rossetti,
IMRN 2016).  With ``N(j) = #{x in L : |u| + |v| = j}``:

* padding 0: ``m(k) = sum of N(j) over j <= k with j = k mod 2``;
* padding 1: let ``C0`` be that series summed once more by parity (the
  invariant-monomial counts of the 3-sphere); then ``m(k) = C0(k) + C0(k-1)``.

This is a different counting method from the program's dynamic
programme, so agreement is evidence rather than a restatement.  Isometry
uses the orbit minimum over unit multipliers, signs and permutations.
"""

from __future__ import annotations

import math

import numpy as np


def fold(x: int, q: int) -> int:
    x %= q
    return min(x, q - x)


def canonical(q: int, rotations: tuple[int, ...]) -> tuple[int, ...]:
    """Smallest sorted sign-folded rotation vector over all unit multipliers."""
    return min(
        tuple(sorted(fold(l * p, q) for p in rotations))
        for l in range(1, q + 1)
        if math.gcd(l, q) == 1
    )


def apply_witness(q: int, rotations, unit: int, signs, permutation) -> tuple[int, ...]:
    out = [0] * len(rotations)
    for i, p in enumerate(rotations):
        out[permutation[i]] = (signs[i] * unit * p) % q
    return tuple(out)


def isotropy(q: int, rotations: tuple[int, int]) -> tuple[int, int]:
    """(alpha, beta): coprime isotropy orders of the two singular circles."""
    a_hat = q // math.gcd(rotations[0], q)
    b_hat = q // math.gcd(rotations[1], q)
    g = math.gcd(a_hat, b_hat)
    return a_hat // g, b_hat // g


def lattice_norm_counts(q: int, p1: int, p2: int, jmax: int) -> np.ndarray:
    """N(j) for j = 0..jmax: lattice points of 1-norm exactly j."""
    # Solve for the coordinate whose solutions are spaced furthest apart.
    a, b = (p1, p2) if math.gcd(p1, q) <= math.gcd(p2, q) else (p2, p1)
    g = math.gcd(a, q)
    step = q // g
    inv = pow(a // g, -1, step) if step > 1 else 0
    y = np.arange(-jmax, jmax + 1, dtype=np.int64)
    reach = jmax - np.abs(y)
    ok = (b * y) % g == 0
    y, reach = y[ok], reach[ok]
    x0 = (((-b * y) % q) // g * inv) % step
    lo = x0 - step * ((x0 + reach) // step)
    count = np.where(lo <= reach, (reach - lo) // step + 1, 0)
    total = int(count.sum())
    offsets = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(count) - count, count)
    x = np.repeat(lo, count) + step * offsets
    norms = np.abs(x) + np.abs(np.repeat(y, count))
    return np.bincount(norms, minlength=jmax + 1)


def _parity_cumsum(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out[0::2] = np.cumsum(a[0::2])
    out[1::2] = np.cumsum(a[1::2])
    return out


def multiplicities(q: int, rotations: tuple[int, int], padding: int, kmax: int) -> np.ndarray:
    """Multiplicities m(0..kmax) of L(q: p1, p2) with 0 or 1 fixed coordinates."""
    if padding not in (0, 1):
        raise ValueError(f"padding must be 0 or 1, got {padding}")
    series = _parity_cumsum(lattice_norm_counts(q, rotations[0], rotations[1], kmax))
    if padding == 0:
        return series
    c0 = _parity_cumsum(series)
    out = c0.copy()
    out[1:] += c0[:-1]
    return out
