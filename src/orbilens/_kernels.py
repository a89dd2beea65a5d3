"""Hot integer kernels: harmonic multiplicities per degree.

The multiplicities are the lag-2 differences of the counts, per degree
m, of the monomials ``prod_j x_j^{e_j}`` whose weighted exponent sum is
0 mod q.  Each rotation block contributes a variable pair with residue
weights ``+p`` and ``q - p``; each padded coordinate a variable of
weight 0.  Counts stay exact in int64; degrees that could overflow that
range are refused up front with :class:`CountingRangeExceeded`.

Two rotation blocks are counted as 1-norm lattice points, following
Lauret, Miatello and Rossetti, "Spectra of lens spaces from 1-norm
spectra of congruence lattices" (IMRN 2016): an exponent tuple
(a1, b1, a2, b2) is invariant exactly when (u, v) = (a1 - b1, a2 - b2)
lies in the congruence lattice

    L = {(u, v) : p1 u + p2 v = 0 mod q},

and the tuples of degree m over a point of 1-norm j number
(m - j)/2 + 1 when m - j is even and non-negative.  So the invariant
counts are the 1-norm counts N(j) of L summed twice over j = m mod 2,
and the multiplicities N summed once.  :func:`multiplicity_rows` counts
a block of same-order pairs at padding 0, one row per pair, a slice of
rows per pass (:func:`rows_per_slice`); time and memory are
O(rows x kmax), independent of q.  A sweep fingerprints a slice of classes for their
keys, and several whole buckets of classes for their comparisons, as one
such block.  CHUNK_CELLS is the sweep's one memory budget: no grid of a
pass, key slice or chunk of pair comparisons holds more int64 cells.

:func:`multiplicities`, the entry for one space, takes two blocks as the
one-row case of :func:`multiplicity_rows`.  Any other number of blocks
goes through :func:`invariant_series`, the coin-change dynamic program

    count[m][r] += count[m-1][(r - w) mod q]

applied for ascending m, one numpy row of q residues at a time.  It
serves one rotation block, three or more; its (mmax + 1) x q table is
capped at MAX_TABLE_CELLS, and so is (mmax + 1) x variables for every
count.

The lattice block sums its rows in place at lag ``step`` and at lag 2
(:func:`_lag_prefix_sum`).  The other series steps are one call each of
:func:`times_one_minus_zd`, the product with (1 - z^d)^power: the lag-2
difference that turns the dynamic program's counts into multiplicities,
and one prefix sum per padded coordinate.  More padded coordinates than
degrees are added as one binomial-weighted convolution instead.
:mod:`orbilens.spectrum` runs the same operator on object arrays for the
exact generating function and its pole orders.
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

    Multiplying by (1 - z^d) is a difference at lag d and dividing by it
    a prefix sum at lag d (:func:`_lag_prefix_sum`); each step runs in
    place on one copy.  Object arrays stay exact in Python integers.
    """
    out = a.copy()
    for _ in range(power):
        out[d:] -= out[:-d]
    for _ in range(-power):
        _lag_prefix_sum(out[None], d)
    return out


# The sweep's one memory budget, in int64 cells (256 KiB): no counting
# grid of multiplicity_rows, slice of rigidity key rows or chunk of
# bucket-mate comparisons (orbilens.search) holds more at once.  The
# largest heat bucket at q = 3990 (432 rows) counted as fast in grid
# slices of 2^15 to 2^19 cells, and slower in larger ones.  Key slices
# of 2^13 to 2^16 cells counted an order's keys equally fast at q = 400,
# 1024, 2048 and 4004.  With one grid per key slice, a rigidity order's
# traced peak stays below 1 MiB at q = 720, 1024, 2048, 4004 and 4096;
# key rows of the whole budget, counted as two grids, peak at 1.16 MB
# at q = 4004.
CHUNK_CELLS = 1 << 15


def _lattice_row(p1: int, p2: int, q: int) -> tuple[int, int, int]:
    """(step, h, c) of the congruence lattice {(u, v) : p1 u + p2 v = 0 mod q}.

    Solves for the coordinate x whose progression step q / gcd(coeff, q)
    is coarser, row by row of the other coordinate y.  Row y is
    admissible when y = h t for t >= 0, and there x0 = (c t) mod step.
    """
    a, b = p1 % q, p2 % q
    if q // math.gcd(b, q) > q // math.gcd(a, q):
        a, b = b, a
    g = math.gcd(a, q)
    step = q // g
    gb = math.gcd(g, b)
    return step, g // gb, (-(b // gb) * pow(a // g, -1, step)) % step


def _lag_prefix_sum(rows: np.ndarray, d: int) -> None:
    """Replace each row of a C-ordered 2-D array by its prefix sum at lag d, in place.

    That is the product of each row with 1 / (1 - z^d).  numpy sums a
    reshaped view down its groups of d columns with one inner loop per
    column of the groups, about 1/48 of the cost of one slice addition
    here (2-vCPU VM, numpy 2.4).  So few groups are added one at a time
    and many short ones summed down the view.
    """
    width = rows.shape[1]
    whole = width - width % d
    if (whole // d - 1) * 48 > len(rows) * d:
        groups = rows[:, :whole].reshape(len(rows), -1, d)
        np.add.accumulate(groups, axis=1, out=groups)
        start = whole
    else:
        start = d
    for at in range(start, width, d):
        rows[:, at : at + d] += rows[:, at - d : min(at, width - d)]


def multiplicity_rows(pairs, q: int, kmax: int) -> np.ndarray:
    """Padding-0 multiplicities for k = 0..kmax of two-block rotation pairs of order q.

    Row r counts the pair ``pairs[r]``.  Each row's lattice (see
    :func:`_lattice_row`) has the solutions x >= 0 and x < 0 of an
    admissible row y as two progressions of its step, starting at the
    1-norms |y| + x0 and |y| + step - x0.  So a row's norm counts N are
    the histogram of those start points summed at lag ``step``, and its
    multiplicities are N summed at lag 2.  A slice of rows is counted in
    one pass (:func:`_count_rows`); the result is a view of the columns
    0..kmax.
    """
    _check_range(q, kmax, 4)
    setup = [_lattice_row(p1, p2, q) for p1, p2 in pairs]
    # An even width holds kmax + 1 degrees and a spare column.
    width = kmax + 2 + kmax % 2
    out = np.empty((len(setup), width), np.int64)
    chunk = rows_per_slice(kmax)
    for lo in range(0, len(setup), chunk):
        _count_rows(setup[lo : lo + chunk], q, out[lo : lo + chunk])
    return out[:, : kmax + 1]


def rows_per_slice(kmax: int) -> int:
    """Rows of degrees 0..kmax that :func:`multiplicity_rows` counts in one pass.

    Their (rows, 2, kmax + 1) grid of start points fits CHUNK_CELLS.
    """
    return max(1, CHUNK_CELLS // (2 * (kmax + 1)))


def _count_rows(setup, q: int, out: np.ndarray) -> None:
    """Fill ``out`` with the multiplicities of the rows whose (step, h, c) are ``setup``.

    The start points of all rows are one ``bincount`` over the offsets
    ``row * width + start``; a start past the degrees lands in the spare
    last column, which the lag sums only carry further right.  Rows -y
    and y give the same pair of starts, so every admissible row counts
    twice.  Row y = 0 is its own mirror: its x < 0 progression counts
    twice, as x and -x, and its x >= 0 one starts at the origin, which
    is left out of the histogram and counted once as N(0) = 1.  Then
    come one lag sum per distinct step (every step divides q, so there
    are few) and one lag-2 sum.  One row takes its (step, h, c) as
    scalars and its starts as a (2, t) grid, several rows as columns and
    a (rows, 2, t) grid; the steps are the same.
    """
    rows, width = out.shape
    steps, hs, cs = zip(*setup)
    tmax = (width - 2) // min(hs)
    # Every offset is below q * width (h and c are below q).  Past 2^63
    # they stay exact as Python integers, and every start is clipped to
    # the spare column before it becomes int64.
    dtype = object if q * width >= 2**63 else np.int64
    if rows == 1:
        (step, h, c), grid = setup[0], (2, tmax + 1)
    else:
        step, h, c = (np.array(col, dtype)[:, None] for col in (steps, hs, cs))
        grid = (rows, 2, tmax + 1)
    t = np.arange(tmax + 1, dtype=dtype)
    y = t if max(hs) == 1 else h * t
    starts = np.empty(grid, dtype)
    x0 = starts[..., 1, :]
    np.multiply(c, t, out=x0)
    np.remainder(x0, step, out=x0)
    np.add(y, x0, out=starts[..., 0, :])
    np.subtract(step, x0, out=x0)
    x0 += y
    np.minimum(starts, width - 1, out=starts)
    starts[..., 0, 0] = width - 1
    if dtype is object:
        starts = starts.astype(np.int64)
    if rows > 1:
        starts += (width * np.arange(rows))[:, None, None]
    counts = np.bincount(starts.ravel(), minlength=out.size)
    np.multiply(counts.reshape(rows, width), 2, out=out)
    distinct = sorted(set(steps))
    for d in distinct:
        if d >= width - 1:
            break
        if len(distinct) == 1:
            _lag_prefix_sum(out, d)
        else:
            at = [r for r, s in enumerate(steps) if s == d]
            lagged = out[at]
            _lag_prefix_sum(lagged, d)
            out[at] = lagged
    out[:, 0] = 1
    _lag_prefix_sum(out, 2)


def multiplicities(rotations, q: int, padding: int, kmax: int) -> np.ndarray:
    """Harmonic multiplicities for degrees 0..kmax of a lens-space quotient.

    Entry k is the invariant-monomial count at degree k minus the count
    at degree k - 2 for the weights ``+-p`` per rotation and ``padding``
    zeros.
    """
    _check_range(q, kmax, 2 * len(rotations) + padding)
    if len(rotations) == 2:
        mult = multiplicity_rows([rotations], q, kmax)[0]
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
    return times_one_minus_zd(mult, 1, -padding) if padding else mult
