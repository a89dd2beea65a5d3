"""Heat-trace asymptotics for 3D lens-space quotients, exactly.

As t -> 0+ the heat trace of the quotient expands in half-integer powers
of t.  The smooth part contributes (1/(32 q pi)) t^(-3/2) e^t; each
singular circle contributes sqrt(pi) t^(-1/2) sums of fixed-point
coefficients b_0, b_1 divided by its isotropy order.  With the two
isotropy orders written alpha and beta (see
:func:`orbilens.core.decompose_singular`), the closed forms are

    b_0 = (m^2 - 1)/12
    b_1 = -(R_1313 + R_2323) (m^2 - 29)(m^2 - 1)/720

for a circle of isotropy order m, where the curvature components are
evaluated at a representative point of the fixed circle (both equal 1 on
the unit round sphere).  Every coefficient lives in the exact linear
span of 1/pi and sqrt(pi) over the rationals, so equality of expansions
is decided exactly, never by float comparison.

The 4D (padded) case carries the same gcd structure; only the matching
predicate and the normal-bundle determinant factors are provided there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .core import LensSpace, canonical_form, decompose_singular
from .errors import (
    PreconditionViolated,
    ShapeMismatch,
    SingularRotation,
    UnsupportedShape,
)

__all__ = [
    "HeatCoefficient",
    "CurvatureContext",
    "SPHERE3",
    "SPHERE4",
    "csc2_sum",
    "csc4_sum",
    "StratumTerm",
    "stratum_b01",
    "stratum_cot_sums",
    "DonnellyB",
    "donnelly_b_matrix",
    "HeatTerm",
    "HeatExpansion",
    "heat_expansion_3d",
    "HeatVerdict",
    "same_heat_expansion",
]

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class HeatCoefficient:
    """Exact number of the form inv_pi * (1/pi) + sqrt_pi * sqrt(pi)."""

    inv_pi: Fraction = Fraction(0)
    sqrt_pi: Fraction = Fraction(0)

    def __add__(self, other: "HeatCoefficient") -> "HeatCoefficient":
        return HeatCoefficient(self.inv_pi + other.inv_pi, self.sqrt_pi + other.sqrt_pi)

    def __float__(self) -> float:
        return float(self.inv_pi) / math.pi + float(self.sqrt_pi) * math.sqrt(math.pi)

    def is_zero(self) -> bool:
        return self.inv_pi == 0 and self.sqrt_pi == 0

    def render(self) -> str:
        parts = []
        if self.inv_pi:
            parts.append(f"{self.inv_pi} · 1/π")
        if self.sqrt_pi:
            sign = " + " if (self.sqrt_pi > 0 and parts) else (" - " if parts else "")
            mag = abs(self.sqrt_pi) if parts else self.sqrt_pi
            parts.append(f"{sign}{mag} · √π")
        return "".join(parts) if parts else "0"


@dataclass(frozen=True)
class CurvatureContext:
    """Curvature data at a representative point of a fixed circle.

    The defaults are the unit round sphere values; r1313 and r2323 are
    the two sectional components entering b_1, tau the scalar curvature.
    """

    dim: int
    r1313: Rational
    r2323: Rational
    tau: Rational
    ricci_diagonal: tuple[Rational, ...]

    @property
    def curvature_sum(self) -> Fraction:
        return Fraction(self.r1313) + Fraction(self.r2323)


SPHERE3 = CurvatureContext(dim=3, r1313=1, r2323=1, tau=6, ricci_diagonal=(2, 2, 2))
SPHERE4 = CurvatureContext(dim=4, r1313=1, r2323=1, tau=12, ricci_diagonal=(3, 3, 3, 3))


def csc2_sum(m: int) -> Fraction:
    """sum_{r=1}^{m-1} 1/sin^2(pi r / m) = (m^2 - 1)/3, exactly."""
    if m < 1:
        raise PreconditionViolated(f"m must be >= 1, got {m}")
    return Fraction(m * m - 1, 3)


def csc4_sum(m: int) -> Fraction:
    """sum_{r=1}^{m-1} 1/sin^4(pi r / m) = (m^4 + 10 m^2 - 11)/45, exactly."""
    if m < 1:
        raise PreconditionViolated(f"m must be >= 1, got {m}")
    return Fraction(m**4 + 10 * m * m - 11, 45)


def stratum_cot_sums(m: int, weight: int = 1) -> tuple[float, float]:
    """Term-by-term float evaluation of the b_0 / b_1 sums for one circle.

    The angles weight*pi*r/m sweep a full residue system whenever
    gcd(weight, m) = 1, so the value must be independent of the weight;
    the curvature factor of b_1 is left out (multiply by the context's
    curvature sum).
    """
    if m < 2:
        raise PreconditionViolated(f"isotropy order must be >= 2, got {m}")
    if math.gcd(weight, m) != 1:
        raise PreconditionViolated(f"weight {weight} shares a factor with {m}")
    b0 = 0.0
    b1 = 0.0
    for r in range(1, m):
        s2 = math.sin(math.pi * ((weight * r) % m) / m) ** 2
        b0 += 0.25 / s2
        b1 += 1.0 / (6.0 * s2) - 1.0 / (16.0 * s2 * s2)
    return b0, b1


@dataclass(frozen=True)
class StratumTerm:
    """Exact b_0, b_1 of one singular circle plus float trig cross-checks."""

    label: str
    isotropy_order: int
    b0: Fraction
    b1: Fraction
    b0_cot_sum: float
    b1_cot_sum: float


def stratum_b01(
    m: int, ctx: CurvatureContext = SPHERE3, weight: int = 1, label: str = ""
) -> StratumTerm:
    """Fixed-point heat coefficients of a circle with isotropy order m >= 2.

    b_0 = (m^2 - 1)/12 and
    b_1 = -(R_1313 + R_2323)(m^2 - 29)(m^2 - 1)/720, both exact.
    """
    if m < 2:
        raise PreconditionViolated(f"isotropy order must be >= 2, got {m}")
    curv = ctx.curvature_sum
    b0 = Fraction(m * m - 1, 12)
    b1 = -curv * Fraction((m * m - 29) * (m * m - 1), 720)
    c0, c1 = stratum_cot_sums(m, weight)
    return StratumTerm(label, m, b0, b1, c0, float(curv) * c1)


@dataclass(frozen=True)
class DonnellyB:
    """Normal-bundle matrix B = (I - A)^(-1) of a plane rotation.

    ``angle_over_pi`` is the exact rotation half-angle as a multiple of
    pi; entries and |det B| = 1/(4 sin^2) are float renderings.
    """

    angle_over_pi: Fraction
    entries: tuple[tuple[float, float], tuple[float, float]]
    det_abs: float


def donnelly_b_matrix(m: int, r: int, weight: int = 1) -> DonnellyB:
    """B matrix of the r-th power acting on the normal plane of a circle."""
    if m < 2:
        raise PreconditionViolated(f"isotropy order must be >= 2, got {m}")
    if math.gcd(weight, m) != 1:
        raise PreconditionViolated(f"weight {weight} shares a factor with {m}")
    if (weight * r) % m == 0:
        raise SingularRotation(f"rotation by 2*pi*{weight}*{r}/{m} is the identity")
    if not 1 <= r <= m - 1:
        raise PreconditionViolated(f"power r must lie in [1, {m - 1}], got {r}")
    angle = Fraction((weight * r) % m, m)
    c = 1.0 / math.tan(math.pi * float(angle))
    det = 0.25 * (1.0 + c * c)
    return DonnellyB(angle, ((0.5, -0.5 * c), (0.5 * c, 0.5)), det)


@dataclass(frozen=True)
class HeatTerm:
    exponent: Fraction
    coefficient: HeatCoefficient
    exact: bool = True


@dataclass(frozen=True)
class HeatExpansion:
    """Truncated small-time expansion sum_j c_j t^(e_j) of the heat trace."""

    space: LensSpace
    alpha: int
    beta: int
    terms: tuple[HeatTerm, ...]
    truncation_order: int
    strata: tuple[StratumTerm, ...]

    def coefficients(self) -> tuple[HeatCoefficient, ...]:
        return tuple(t.coefficient for t in self.terms)


def heat_expansion_3d(
    space: LensSpace, order: int = 3, ctx: CurvatureContext = SPHERE3
) -> HeatExpansion:
    """First terms of the heat-trace expansion of a 3D quotient.

    Emits exponents -3/2, -1/2, 1/2 (order = 1..3).  The smooth part
    contributes 1/(32 q pi) times 1/j! at exponent -3/2 + j; each
    singular circle adds sqrt(pi) b_j / isotropy at exponent -1/2 + j.
    The manifold case alpha = beta = 1 has no circle contributions.
    Deeper terms would need fixed-point coefficients beyond b_1 and are
    not emitted.
    """
    if space.n != 2 or space.padding != 0:
        raise UnsupportedShape("heat expansion implemented for n=2, padding=0")
    if not 1 <= order <= 3:
        raise PreconditionViolated(f"order must be in [1, 3], got {order}")
    dec = decompose_singular(space)
    alpha, beta = dec.alpha, dec.beta
    q = space.q
    strata = []
    if beta > 1:
        strata.append(stratum_b01(beta, ctx, label="first-plane circle"))
    if alpha > 1:
        strata.append(stratum_b01(alpha, ctx, label="second-plane circle"))

    def circle_part(j: int) -> Fraction:
        acc = Fraction(0)
        for term in strata:
            acc += (term.b0 if j == 0 else term.b1) / term.isotropy_order
        return acc

    terms = []
    for j in range(order):
        expo = Fraction(2 * j - 3, 2)
        coeff = HeatCoefficient(inv_pi=Fraction(1, 32 * q * math.factorial(j)))
        if j in (1, 2):
            coeff = coeff + HeatCoefficient(sqrt_pi=circle_part(j - 1))
        terms.append(HeatTerm(expo, coeff))
    return HeatExpansion(space, alpha, beta, tuple(terms), order, tuple(strata))


class HeatVerdict(enum.Enum):
    GUARANTEED_EQUAL = "GuaranteedEqual"
    UNKNOWN = "Unknown"


def same_heat_expansion(first: LensSpace, second: LensSpace) -> HeatVerdict:
    """Sufficient test for equality of the full heat-trace expansions.

    GUARANTEED_EQUAL when the descriptors are isometric (equal canonical
    forms), or when both are genuine orbifold quotients with matching
    isotropy pairs {alpha, beta}: every circle contribution then depends
    on the isotropy orders alone, to all orders.  Anything else returns
    UNKNOWN rather than a claim of inequality; in particular the
    rotationally degenerate case p_1 = +-p_2 mod q falls outside the
    matching criterion, as do pairs of distinct manifold classes.
    """
    if first.n != 2 or second.n != 2:
        raise ShapeMismatch("expansion matching needs two rotation blocks")
    if first.padding != second.padding or first.padding > 1:
        raise ShapeMismatch(
            f"padding mismatch or unsupported: {first.padding} vs {second.padding}"
        )
    if first.q != second.q:
        raise ShapeMismatch(f"group orders differ: {first.q} vs {second.q}")
    if canonical_form(first) == canonical_form(second):
        return HeatVerdict.GUARANTEED_EQUAL
    key = _heat_key(first)
    if key is not None and key == _heat_key(second):
        return HeatVerdict.GUARANTEED_EQUAL
    return HeatVerdict.UNKNOWN


def _heat_key(space: LensSpace) -> Optional[tuple[int, tuple[int, int]]]:
    """Matching key of the isotropy lemma: (g, sorted(alpha, beta)), or None.

    None when the lemma does not apply: the rotationally degenerate case
    p_1 = +-p_2 mod q and manifold quotients.  Two same-order spaces
    with equal keys have equal heat expansions to all orders.
    """
    q = space.q
    p1, p2 = space.rotations
    if p1 % q == p2 % q or (p1 + p2) % q == 0 or space.is_manifold():
        return None
    dec = decompose_singular(space)
    return dec.g, tuple(sorted((dec.alpha, dec.beta)))
