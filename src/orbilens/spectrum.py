"""Exact Laplace spectra of lens-space quotients.

The eigenvalue ladder of the quotient is indexed by the harmonic degree
k: the eigenvalue is k(k + d - 1) on an ambient sphere of dimension d,
and its multiplicity is the dimension of the group-invariant harmonic
polynomials of degree k.  That dimension is computed exactly by integer
counting: invariant monomials of degree m are exponent tuples
(a_1, b_1, .., a_n, b_n, c_1, .., c_W) with sum p_i (a_i - b_i) = 0 mod q,
and the harmonic dimension is the difference of consecutive even-shifted
counts.  :func:`orbilens._kernels.multiplicities` returns those
differences directly: for two rotation blocks (dimensions 3 and 4 at
padding 0 and 1) from the 1-norm counts of the congruence lattice
{(u, v) : p_1 u + p_2 v = 0 mod q}, for any other number of blocks from
the dynamic program :func:`orbilens._kernels.invariant_series`, and one
prefix sum per padded coordinate.  No floating point enters
the exact path; the closed-form complex sum over group elements is kept
only as a numeric cross-check (:func:`evaluate_F`) and for residues.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from . import _kernels
from .core import LensSpace
from .errors import (
    DimensionMismatch,
    InternalInvariant,
    NotADivisor,
    PoleEvaluation,
    PreconditionViolated,
    UnsupportedPadding,
)

__all__ = [
    "multiplicity",
    "multiplicity_series",
    "eigenvalue",
    "SpectrumRow",
    "SpectrumTable",
    "spectrum_table",
    "GeneratingFunction",
    "generating_function",
    "IsospectralDecision",
    "is_isospectral",
    "isospectral_bound",
    "evaluate_F",
    "ResidueProfile",
    "residue_cot_sum",
    "residue_case3",
    "pole_order",
    "order_spectrum",
    "MAX_TABLE_ROWS",
]

# Largest table spectrum_table builds, one SpectrumRow per degree: about
# 60 MB peak RSS for a CLI spectrum at this size.
MAX_TABLE_ROWS = 100_000


def multiplicity(space: LensSpace, k: int) -> int:
    """Multiplicity of the k-th eigenvalue ladder step, exactly."""
    return int(multiplicity_series(space, k)[k])


def multiplicity_series(space: LensSpace, kmax: int) -> np.ndarray:
    """Multiplicities for k = 0..kmax as an int64 array, exactly."""
    if kmax < 0:
        raise PreconditionViolated(f"kmax must be >= 0, got {kmax}")
    return _kernels.multiplicities(space.rotations, space.q, space.padding, kmax)


def eigenvalue(space: LensSpace, k: int) -> int:
    """Laplace eigenvalue k(k + d - 1) on the ambient sphere of dimension d."""
    d = space.ambient_dim
    return k * (k + d - 1)


@dataclass(frozen=True)
class SpectrumRow:
    k: int
    eigenvalue: int
    multiplicity: int


@dataclass(frozen=True)
class SpectrumTable:
    space: LensSpace
    rows: tuple[SpectrumRow, ...]


def spectrum_table(space: LensSpace, kmax: int) -> SpectrumTable:
    """Rows (k, eigenvalue, multiplicity) for k = 0..kmax.

    Rows with multiplicity 0 are retained; they certify eigenvalues that
    are absent from the quotient's spectrum.
    """
    if kmax >= MAX_TABLE_ROWS:
        # A degree beyond the counting limits is reported as such.
        _kernels._check_range(space.q, kmax, 2 * space.n + space.padding)
        raise PreconditionViolated(
            f"degree {kmax} needs {kmax + 1} table rows, above the "
            f"{MAX_TABLE_ROWS} row limit"
        )
    mult = multiplicity_series(space, kmax)
    rows = tuple(
        SpectrumRow(k, eigenvalue(space, k), int(mult[k])) for k in range(kmax + 1)
    )
    return SpectrumTable(space, rows)


@dataclass(frozen=True)
class GeneratingFunction:
    """Exact rational form N(z) / (1 - z^q)^(2n) of the spectrum series.

    The Taylor coefficients reproduce the multiplicities exactly; the
    numerator has integer coefficients of degree at most 2nq - 2n + 2.
    """

    q: int
    n: int
    padding: int
    numerator: tuple[int, ...]
    denominator_power: int

    @property
    def degree(self) -> int:
        return len(self.numerator) - 1

    def taylor(self, kmax: int) -> list[int]:
        """Multiplicity series recovered by polynomial long division."""
        q, m = self.q, self.denominator_power
        num = self.numerator
        out = []
        for k in range(kmax + 1):
            acc = num[k] if k < len(num) else 0
            for j in range(1, m + 1):
                if k - j * q < 0:
                    break
                acc -= math.comb(m, j) * (-1) ** j * out[k - j * q]
            out.append(acc)
        return out

    def evaluate(self, z: Union[Fraction, complex, float]):
        """Evaluate the rational form; exact when z is a Fraction."""
        num = sum(c * z**i for i, c in enumerate(self.numerator))
        den = (1 - z**self.q) ** self.denominator_power
        if den == 0:
            raise PoleEvaluation(f"z={z} is a pole of the rational form")
        return num / den


def generating_function(space: LensSpace) -> GeneratingFunction:
    """Exact numerator of the spectrum series over (1 - z^q)^(2n).

    The multiplicity series is multiplied by (1 - z^q)^(2n); the product
    must terminate at degree 2nq - 2n + 2, which is verified rather than
    assumed.  Supports padding 0 and 1 (for padding 1 the numerator
    absorbs the extra (1 - z) factor exactly).
    """
    if space.padding > 1:
        raise UnsupportedPadding(
            f"generating function implemented for padding 0 or 1, got {space.padding}"
        )
    q, n = space.q, space.n
    m = 2 * n
    upper = 2 * n * q + 2 * n + 2
    cap = 2 * n * q - 2 * n + 2
    mult = multiplicity_series(space, upper)
    coeffs = [0] * (upper + 1)
    for d in range(upper + 1):
        acc = 0
        for j in range(0, m + 1):
            if d - j * q < 0:
                break
            acc += (-1) ** j * math.comb(m, j) * int(mult[d - j * q])
        coeffs[d] = acc
    for d in range(cap + 1, upper + 1):
        if coeffs[d] != 0:
            raise InternalInvariant(
                f"numerator fails to terminate by degree {cap} for {space}"
            )
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return GeneratingFunction(q, n, space.padding, tuple(coeffs), m)


def isospectral_bound(space: LensSpace) -> int:
    """Comparison depth that certifies equality of two spectrum series.

    Both series are rational with common denominator (1 - z^q)^(2n) and
    numerator degree below 2nq, so agreement of the Taylor coefficients
    through degree 2nq forces identity; two further degrees are checked
    as margin.
    """
    return 2 * space.n * space.q + 2


@dataclass(frozen=True)
class IsospectralDecision:
    isospectral: bool
    first_differing_k: Optional[int]
    checked_upto: int
    reason: str

    def __bool__(self) -> bool:
        return self.isospectral


def is_isospectral(first: LensSpace, second: LensSpace) -> IsospectralDecision:
    """Decide spectral equality exactly.

    Distinct group orders can never be isospectral (the group order is a
    spectral invariant), so those pairs are refused without a scan.
    Otherwise multiplicities are compared through the certifying bound.
    """
    if first.n != second.n or first.padding != second.padding:
        raise DimensionMismatch(
            f"shape mismatch: n={first.n},W={first.padding} vs n={second.n},W={second.padding}"
        )
    if first.q != second.q:
        return IsospectralDecision(
            False,
            None,
            0,
            f"group orders differ ({first.q} vs {second.q}); the order is spectrally determined",
        )
    bound = isospectral_bound(first)
    s1 = multiplicity_series(first, bound)
    s2 = multiplicity_series(second, bound)
    diff = np.nonzero(s1 != s2)[0]
    if diff.size == 0:
        return IsospectralDecision(
            True, None, bound, f"multiplicities agree through degree {bound}"
        )
    k = int(diff[0])
    return IsospectralDecision(
        False,
        k,
        bound,
        f"multiplicity differs at k={k}: {int(s1[k])} vs {int(s2[k])}",
    )


def evaluate_F(space: LensSpace, z: complex) -> complex:
    """Closed-form numeric value of the spectrum series at z.

    Sums (1+z)(1-z)^(1-W)/q over the group elements' characteristic
    factors.  Agrees with the exact series inside the unit disk; valid by
    analytic continuation away from the roots of unity elsewhere.
    """
    z = complex(z)
    q = space.q
    ls = np.arange(1, q + 1, dtype=np.int64)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    prod = np.ones(q, dtype=np.complex128)
    for p in space.rotations:
        prod *= (z - roots[(p * ls) % q]) * (z - roots[(-p * ls) % q])
    if np.min(np.abs(prod)) < 1e-13:
        raise PoleEvaluation(f"z={z} is too close to a pole of a group-element factor")
    w = space.padding
    if w >= 2 and abs(1 - z) ** (w - 1) < 1e-13:
        raise PoleEvaluation(f"z={z} is too close to the padded pole at z=1")
    prefactor = (1 + z) * (1 - z) ** (1 - w)
    return complex(prefactor / q * np.sum(1.0 / prod))


@dataclass(frozen=True)
class ResidueProfile:
    """Cotangent-sum residue data at the pole exp(2*pi*i*x/q).

    ``a_values`` and ``b_values`` are the shifted angle numerators
    (mod q) entering cot(pi*a/q) - cot(pi*b/q); ``value`` is the residue,
    which is real and provably nonzero for this pole shape.
    """

    space: LensSpace
    x: int
    a_values: tuple[int, ...]
    b_values: tuple[int, ...]
    value: complex


def residue_cot_sum(space: LensSpace) -> ResidueProfile:
    """Residue of the spectrum series at exp(2*pi*i*x/q) by cotangent sums.

    Applies to two-rotation unpadded descriptors whose first rotation x
    is a proper divisor of q and whose second rotation has gcd y with q
    strictly larger than x, coprime to x.  Only group elements with
    index t*(q/x) -+ 1 contribute, giving

        value = sum_t [cot(pi a_t / q) - cot(pi b_t / q)] / (2 q sin(2 pi x / q))

    with a_t, b_t = p2*(t*q/x - 1) +- x.
    """
    if space.n != 2 or space.padding != 0:
        raise PreconditionViolated("cotangent-sum residue needs n=2, padding=0")
    q = space.q
    x, second = space.rotations
    if x <= 1 or q % x != 0:
        raise PreconditionViolated(
            f"first rotation must be a divisor of q with 1 < x < q, got {x}"
        )
    y = math.gcd(second, q)
    if y <= x:
        raise PreconditionViolated(
            f"second rotation's gcd with q must exceed the first rotation ({y} <= {x})"
        )
    if math.gcd(x, second) != 1:
        raise PreconditionViolated("first rotation must be coprime to the second")
    q_over_x = q // x
    a_vals, b_vals = [], []
    total = 0.0
    for t in range(1, x + 1):
        alpha_t = second * (t * q_over_x - 1)
        a = (alpha_t + x) % q
        b = (alpha_t - x) % q
        if a == 0 or b == 0:
            raise InternalInvariant(f"degenerate cotangent angle for {space} at t={t}")
        a_vals.append(a)
        b_vals.append(b)
        total += 1.0 / math.tan(math.pi * a / q) - 1.0 / math.tan(math.pi * b / q)
    value = total / (2.0 * q * math.sin(2.0 * math.pi * x / q))
    if value == 0.0:
        raise InternalInvariant(f"cotangent-sum residue vanished for {space}")
    return ResidueProfile(space, x, tuple(a_vals), tuple(b_vals), complex(value))


def residue_case3(space: LensSpace, power: int = 1) -> complex:
    """Residue at the primitive root exp(2*pi*i*power/q) for shape (1, x).

    For a two-rotation descriptor (1, x) with gcd(x, q) > 1 only the two
    group elements with index -+power contribute, giving the closed form

        -2 g / (q (1 - g^(1-x)) (1 - g^(1+x))),   g = exp(2*pi*i*power/q).
    """
    if space.n != 2 or space.padding != 0:
        raise PreconditionViolated("closed-form residue needs n=2, padding=0")
    q = space.q
    if space.rotations[0] != 1:
        raise PreconditionViolated(f"first rotation must be 1, got {space.rotations[0]}")
    x = space.rotations[1]
    if math.gcd(x, q) <= 1:
        raise PreconditionViolated(f"second rotation must share a factor with q, got {x}")
    if math.gcd(power, q) != 1:
        raise PreconditionViolated(f"power {power} is not a unit mod {q}")
    g = cmath.exp(2j * cmath.pi * power / q)
    return -2 * g / (q * (1 - g ** ((1 - x) % q)) * (1 - g ** ((1 + x) % q)))


def pole_order(space: LensSpace, k: int) -> int:
    """Pole order of the spectrum series at primitive k-th roots of unity.

    For k = 1 or 2 the order is 2n - 1.  For k >= 3 it is the largest
    eigenvalue multiplicity among the rotation eigenvalues of the group
    elements of order k, found by scanning their eigenvalue multisets.
    """
    if k < 1 or space.q % k != 0:
        raise NotADivisor(f"k={k} does not divide q={space.q}")
    n, q = space.n, space.q
    if k <= 2:
        return 2 * n - 1
    best = 0
    for l in range(1, q + 1):
        if q // math.gcd(l, q) != k:
            continue
        expo = Counter()
        for p in space.rotations:
            expo[(p * l) % q] += 1
            expo[(-p * l) % q] += 1
        best = max(best, max(expo.values()))
    return best


def order_spectrum(space: LensSpace) -> tuple[int, ...]:
    """Set of element orders of the acting cyclic group: the divisors of q."""
    q = space.q
    return tuple(d for d in range(1, q + 1) if q % d == 0)
