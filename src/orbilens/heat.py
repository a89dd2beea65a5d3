"""Heat-trace asymptotics for 3D lens-space quotients, exactly.

The coefficients here follow the paper's convention, in which the smooth
part of the expansion is (1/(32 q pi)) t^(-3/2) e^t (acceptance criterion
C6 pins its leading 1/6240 · 1/pi for q = 195).  Each singular circle
adds sqrt(pi) t^(-1/2) sums of fixed-point coefficients b_0, b_1 divided
by its isotropy order.  With the two isotropy orders written alpha and
beta (see :func:`orbilens.core.decompose_singular`), the closed forms on
the unit round sphere are

    b_0 = (m^2 - 1)/12
    b_1 = -(m^2 - 29)(m^2 - 1)/360

for a circle of isotropy order m.  Every coefficient lives in the exact
linear span of 1/pi and sqrt(pi) over the rationals, so equality of
expansions is decided exactly, never by float comparison.

These are not the small-t coefficients of the computed spectrum's trace
sum_k m_k e^(-k(k+2)t).  That trace starts with sqrt(pi)/(4q) t^(-3/2),
which is (4 pi)^(3/2) times the 1/(32 q pi) here.  Its t^(-1/2)
coefficient for L(195:3,5), fitted at t = 1e-6..1e-7, is 0.0265111,
against 1.10291 in this convention.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import LensSpace, decompose_singular, is_isometric
from .errors import PreconditionViolated, ShapeMismatch, UnsupportedShape

__all__ = [
    "HeatCoefficient",
    "csc2_sum",
    "csc4_sum",
    "StratumTerm",
    "stratum_b01",
    "HeatTerm",
    "HeatExpansion",
    "heat_expansion_3d",
    "HeatVerdict",
    "same_heat_expansion",
]


@dataclass(frozen=True)
class HeatCoefficient:
    """Exact number of the form inv_pi * (1/pi) + sqrt_pi * sqrt(pi)."""

    inv_pi: Fraction = Fraction(0)
    sqrt_pi: Fraction = Fraction(0)

    def __add__(self, other: "HeatCoefficient") -> "HeatCoefficient":
        return HeatCoefficient(self.inv_pi + other.inv_pi, self.sqrt_pi + other.sqrt_pi)

    def __float__(self) -> float:
        try:
            return float(self.inv_pi) / math.pi + float(self.sqrt_pi) * math.sqrt(math.pi)
        except OverflowError:
            # A part is beyond the float range: sum exactly, with the floats
            # of 1/pi and sqrt(pi) as rationals, and give +-inf past it.
            x = self.inv_pi * Fraction(1 / math.pi) + self.sqrt_pi * Fraction(math.sqrt(math.pi))
            if abs(x) <= sys.float_info.max:
                return float(x)
            return math.inf if x > 0 else -math.inf

    def render(self) -> str:
        parts = []
        if self.inv_pi:
            parts.append(f"{self.inv_pi} · 1/π")
        if self.sqrt_pi:
            sign = " + " if (self.sqrt_pi > 0 and parts) else (" - " if parts else "")
            mag = abs(self.sqrt_pi) if parts else self.sqrt_pi
            parts.append(f"{sign}{mag} · √π")
        return "".join(parts) if parts else "0"


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


@dataclass(frozen=True)
class StratumTerm:
    """Exact b_0, b_1 of one singular circle."""

    isotropy_order: int
    b0: Fraction
    b1: Fraction


def stratum_b01(m: int) -> StratumTerm:
    """Fixed-point heat coefficients of a circle with isotropy order m >= 2.

    b_0 = (m^2 - 1)/12 and b_1 = -(m^2 - 29)(m^2 - 1)/360, both exact.
    """
    if m < 2:
        raise PreconditionViolated(f"isotropy order must be >= 2, got {m}")
    b0 = Fraction(m * m - 1, 12)
    b1 = -Fraction((m * m - 29) * (m * m - 1), 360)
    return StratumTerm(m, b0, b1)


@dataclass(frozen=True)
class HeatTerm:
    exponent: Fraction
    coefficient: HeatCoefficient
    exact: bool = True


@dataclass(frozen=True)
class HeatExpansion:
    """Truncated small-time expansion sum_j c_j t^(e_j), paper convention."""

    space: LensSpace
    alpha: int
    beta: int
    terms: tuple[HeatTerm, ...]
    truncation_order: int
    strata: tuple[StratumTerm, ...]

    def coefficients(self) -> tuple[HeatCoefficient, ...]:
        return tuple(t.coefficient for t in self.terms)


def heat_expansion_3d(space: LensSpace, order: int = 3) -> HeatExpansion:
    """First terms of the heat-trace expansion of a 3D quotient, in the
    paper's convention (see the module docstring).

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
    # The first plane's circle (isotropy beta), then the second's (alpha).
    strata = [stratum_b01(m) for m in (beta, alpha) if m > 1]

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

    GUARANTEED_EQUAL when both are genuine orbifold quotients with
    matching isotropy pairs {alpha, beta}: every circle contribution then
    depends on the isotropy orders alone, to all orders.  Failing that,
    also when the descriptors are isometric.  Anything else returns
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
    key = _heat_key(first)
    if key is not None and key == _heat_key(second):
        return HeatVerdict.GUARANTEED_EQUAL
    if is_isometric(first, second) is not None:
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
