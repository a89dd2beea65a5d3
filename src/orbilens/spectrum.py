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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from . import _kernels
from .core import LensSpace, _check_pair_shape, _check_shape, _integer
from .errors import (
    InternalInvariant,
    NotADivisor,
    PoleEvaluation,
    PreconditionViolated,
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
    """Multiplicities for k = 0..kmax as an int64 array, exactly.

    A negative kmax, or a degree beyond the exact int64 counting range,
    is refused by :func:`orbilens._kernels.multiplicities` before any
    counting.
    """
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
        """Multiplicity series recovered by dividing by (1 - z^q)^(2n)."""
        # Only the degree's sign is checked: the exact object counts have no range.
        _kernels._check_range(self.q, kmax, 0)
        num = np.zeros(kmax + 1, dtype=object)
        num[: len(self.numerator)] = self.numerator[: kmax + 1]
        return _kernels.times_one_minus_zd(num, self.q, -self.denominator_power).tolist()

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
    _check_shape(space, "generating_function", two_blocks=False, max_padding=1)
    q, n = space.q, space.n
    upper = 2 * n * q + 2 * n + 2
    cap = 2 * n * q - 2 * n + 2
    mult = multiplicity_series(space, upper).astype(object)
    coeffs = _kernels.times_one_minus_zd(mult, q, 2 * n).tolist()
    if any(coeffs[cap + 1 :]):
        raise InternalInvariant(
            f"numerator fails to terminate by degree {cap} for {space}"
        )
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return GeneratingFunction(q, n, space.padding, tuple(coeffs), 2 * n)


def _mobius(m: int) -> int:
    """Moebius function mu(m) by trial division."""
    sign, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


def isospectral_bound(space: LensSpace) -> int:
    """Comparison depth that certifies equality of two spectrum series.

    Both series are rational with common denominator (1 - z^q)^(2n) and
    numerator degree below 2nq, so agreement of the Taylor coefficients
    through degree 2nq forces identity; two further degrees are checked
    as margin.

    No depth below q/2 + 1 separates every pair of distinct classes at
    an even order q >= 4: L(q:1,1) and L(q:1,q/2) first differ at degree
    exactly q/2 + 1, at any padding.  In the congruence lattices of
    Lauret, Miatello and Rossetti (IMRN 2016), {(u, v) : u + v = 0 mod q}
    and {(u, v) : u + (q/2) v = 0 mod q}, a point of 1-norm j < q of the
    first has u + v = 0, so it is (u, -u).  In the second an even v
    forces u = 0 mod q and an odd v forces u = q/2 mod q, so its points
    of 1-norm at most q/2 are (0, v) with v even.  Both lattices thus
    have 1 point at norm 0, 2 at each even norm and none at odd norms
    through q/2.  At norm q/2 + 1 < q the second gains the 4 points
    (+-q/2, +-1).  The multiplicities are the norm counts summed at
    lag 2, and each padded coordinate adds a prefix sum; both steps are
    invertible and keep a first difference where it is.  So the
    multiplicities agree through degree q/2 and differ by 4 at q/2 + 1.
    This is a lower bound on the separating depth only.
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
    _check_pair_shape(first, second)
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

    Refuses a z where some group element's factor is below 1e-13 in
    size; the identity's factor (z - 1)^(2n) makes that a disk around
    z = 1 itself, whatever the padding.  A value that is not a finite
    float, as (1 - z)^(1 - W) overflows at a large padding, is refused
    too.
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
    # numpy's power overflows to inf, where Python's complex power raises.
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(
            (1 + z) * np.complex128(1 - z) ** (1 - space.padding) / q * np.sum(1.0 / prod)
        )
    if not cmath.isfinite(value):
        raise PoleEvaluation(f"z={z}: F(z) = {value} is not a finite float")
    return value


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
    strictly larger than x.  The second rotation is then coprime to x:
    x divides q, so a common factor of the two divides gcd(x, p2, q),
    which is 1 for a reduced descriptor.  Only group elements with
    index t*(q/x) -+ 1 contribute, giving

        value = sum_t [cot(pi a_t / q) - cot(pi b_t / q)] / (2 q sin(2 pi x / q))

    with a_t, b_t = p2*(t*q/x - 1) +- x.
    """
    _check_shape(space, "residue_cot_sum", max_padding=0)
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
    _check_shape(space, "residue_case3", max_padding=0)
    q = space.q
    if space.rotations[0] != 1:
        raise PreconditionViolated(f"first rotation must be 1, got {space.rotations[0]}")
    x = space.rotations[1]
    if math.gcd(x, q) <= 1:
        raise PreconditionViolated(f"second rotation must share a factor with q, got {x}")
    if math.gcd(_integer(power, "power"), q) != 1:
        raise PreconditionViolated(f"power {power} is not a unit mod {q}")
    g = cmath.exp(2j * cmath.pi * power / q)
    return -2 * g / (q * (1 - g ** ((1 - x) % q)) * (1 - g ** ((1 + x) % q)))


def pole_order(space: LensSpace, k: int) -> int:
    """Pole order of the spectrum series at primitive k-th roots of unity.

    Each factor (1 - z^q) of the denominator holds the cyclotomic
    polynomial Phi_k once, so the order is 2n - v_k, where v_k is the
    multiplicity of Phi_k in the numerator N(z) of
    :func:`generating_function`, clamped at 0 where N(z) cancels the
    whole denominator factor.  v_k is counted by exact division: N / Phi_k
    is N times (1 - z^d)^(-mu(k/d)) over the divisors d of k, and it is a
    polynomial exactly when that power series vanishes on the k terms
    past deg N (a nonzero remainder over Phi_k repeats with period k).
    """
    if _integer(k, "k") < 1 or space.q % k != 0:
        raise NotADivisor(f"k={k} does not divide q={space.q}")
    gf = generating_function(space)
    num = np.array(gf.numerator + (0,) * k, dtype=object)
    v = 0
    while v < gf.denominator_power:
        quot = num
        for d in range(1, k + 1):
            if k % d == 0:
                quot = _kernels.times_one_minus_zd(quot, d, -_mobius(k // d))
        if any(quot[-k:]):
            break
        num[:-k], v = quot[:-k], v + 1
    return gf.denominator_power - v


def order_spectrum(space: LensSpace) -> tuple[int, ...]:
    """Set of element orders of the acting cyclic group: the divisors of q."""
    q = space.q
    return tuple(d for d in range(1, q + 1) if q % d == 0)
