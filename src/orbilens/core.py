"""Lens-space descriptors and the isometry decision procedure.

A descriptor ``LensSpace(q, rotations, padding)`` names the quotient of
the round sphere S^(2n+W-1) by the cyclic group of order q generated by
the block rotation with angles 2*pi*p_i/q on n coordinate planes, with W
further coordinates held fixed.  Rotations sharing a factor with q make
the action non-free and the quotient an orbifold.

Two descriptors name isometric quotients exactly when one rotation
vector maps to the other by a unit multiplier mod q together with
per-entry sign flips and a permutation.  Folding each residue x to
min(x, q - x) and sorting settles the signs and the permutation, so the
orbit is one sorted folded row per unit, from :func:`_folded_orbit`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    InvalidOrder,
    PreconditionViolated,
    ShapeMismatch,
    UnsupportedShape,
    ZeroRotation,
)

__all__ = [
    "LensSpace",
    "IsometryWitness",
    "SingularDecomposition",
    "reduce",
    "sphere",
    "is_isometric",
    "apply_witness",
    "canonical_form",
    "decompose_singular",
    "pad",
    "units",
    "MAX_UNIT_ORDER",
]

# Largest q whose unit orbit is built.  One isometry query at this order,
# `isometric 1048576 3 5 --format json-lines -- 5 7`, takes 0.33-0.38 s
# and peaks at 58.1 MB RSS (tools/peak_rss.py, 2 CPUs, numpy backend).
MAX_UNIT_ORDER = 1 << 20


def _integer(x, what: str) -> int:
    """``x`` as an int when ``operator.index`` takes it (numpy integers do)."""
    try:
        return operator.index(x)
    except TypeError:
        raise PreconditionViolated(f"{what} must be an integer, got {x!r}") from None


def _order(q) -> int:
    """``q`` as an int if it is a positive integer ``operator.index`` takes, else InvalidOrder."""
    try:
        n = operator.index(q)
    except TypeError:
        n = 0
    if n < 1:
        raise InvalidOrder(f"q must be a positive integer, got {q!r}")
    return n


@dataclass(frozen=True)
class LensSpace:
    """Reduced lens-space descriptor.

    q         -- order of the acting cyclic group;
    rotations -- residues p_1..p_n, each in [1, q-1] (all zero only in
                 the trivial-group case q = 1);
    padding   -- number W of appended fixed coordinates.

    The ambient sphere dimension is 2n + W - 1.  The order, a rotation
    or the padding is any integer ``operator.index`` takes, numpy
    integers included, and is stored as an int.
    """

    q: int
    rotations: tuple[int, ...]
    padding: int = 0

    def __post_init__(self):
        object.__setattr__(self, "q", _order(self.q))
        object.__setattr__(self, "rotations", tuple(_integer(p, "rotation") for p in self.rotations))
        object.__setattr__(self, "padding", _integer(self.padding, "padding"))
        if not self.rotations:
            raise PreconditionViolated("rotation list must be non-empty")
        if self.padding < 0:
            raise PreconditionViolated(f"padding must be >= 0, got {self.padding}")
        if self.q == 1:
            if any(p != 0 for p in self.rotations):
                raise ZeroRotation("q = 1 admits only the zero rotation vector")
            return
        for p in self.rotations:
            if not 1 <= p <= self.q - 1:
                raise ZeroRotation(
                    f"rotation {p} outside [1, {self.q - 1}]; reduce() normalises input"
                )
        if math.gcd(*self.rotations, self.q) != 1:
            raise PreconditionViolated(
                "descriptor not reduced: rotations and q share a factor; use reduce()"
            )

    @property
    def n(self) -> int:
        return len(self.rotations)

    @property
    def ambient_dim(self) -> int:
        return 2 * self.n + self.padding - 1

    def __str__(self) -> str:
        body = ",".join(str(p) for p in self.rotations) + ",0" * self.padding
        return f"L({self.q}:{body})"


@dataclass(frozen=True)
class IsometryWitness:
    """Unit multiplier, sign vector and permutation realising an isometry.

    Applying the witness to the first descriptor's rotations yields the
    second's: target[permutation[i]] == signs[i] * unit * source[i] mod q.
    """

    unit: int
    signs: tuple[int, ...]
    permutation: tuple[int, ...]


@dataclass(frozen=True)
class SingularDecomposition:
    """gcd structure of a two-rotation descriptor.

    q1, q2              -- gcd of each rotation with q;
    alpha_hat, beta_hat -- complementary cofactors q/q1, q/q2;
    g                   -- gcd(alpha_hat, beta_hat);
    alpha, beta         -- alpha_hat/g, beta_hat/g, coprime isotropy
                           orders of the two singular strata (beta for
                           the first coordinate plane, alpha for the
                           second).  alpha = beta = 1 means the quotient
                           is a manifold.
    """

    q1: int
    q2: int
    alpha_hat: int
    beta_hat: int
    g: int
    alpha: int
    beta: int


def reduce(q: int, raw, padding: int = 0) -> LensSpace:
    """Normalise raw integer data into a reduced descriptor.

    Divides the common factor of the entries and q out of both, then
    reduces every entry into [1, q-1].  An entry that vanishes mod the
    reduced q is rejected: a fixed coordinate pair must be declared via
    ``padding`` (use :func:`sphere` for the trivial group).  The padding
    is checked by :class:`LensSpace`.
    """
    q = _order(q)
    raw = [_integer(r, "rotation") for r in raw]
    if not raw:
        raise PreconditionViolated("rotation list must be non-empty")
    g = math.gcd(q, *raw)
    q_red = q // g
    if q_red == 1:
        raise ZeroRotation(
            f"input reduces to the trivial group (q={q}, gcd={g}); "
            "construct the sphere with sphere(n, padding)"
        )
    entries = tuple((r // g) % q_red for r in raw)
    if 0 in entries:
        raise ZeroRotation(
            f"rotation divisible by reduced order {q_red}; model it as padding"
        )
    return LensSpace(q_red, entries, padding)


def sphere(n: int = 2, padding: int = 0) -> LensSpace:
    """Trivial-group descriptor: the round sphere S^(2n+padding-1)."""
    if _integer(n, "n") < 1:
        raise PreconditionViolated(f"n must be >= 1, got {n}")
    return LensSpace(1, (0,) * n, padding)


def _units(q: int) -> np.ndarray:
    """Multiplicative units mod q, ascending in 1..q, as one int64 array.

    The one listing of the unit group: an order above MAX_UNIT_ORDER is
    refused before anything of size q is allocated.
    """
    q = _order(q)
    if q > MAX_UNIT_ORDER:
        raise PreconditionViolated(f"order {q} exceeds the unit-orbit limit of {MAX_UNIT_ORDER}")
    x = np.arange(1, q + 1, dtype=np.int64)
    return x[np.gcd(x, q) == 1]


def units(q: int) -> list[int]:
    """Multiplicative units mod q (as representatives 1..q), ascending."""
    return _units(q).tolist()


def _folded_orbit(space: LensSpace) -> tuple[np.ndarray, np.ndarray]:
    """The units l mod q, ascending, and their sign-folded rotation rows.

    Row i of the (phi(q), n) matrix holds min(x, q - x) for x = l_i p mod q
    over the rotations p, in the descriptor's order.
    """
    q = space.q
    ls = _units(q)
    x = ls[:, None] * np.array(space.rotations, np.int64) % q
    return ls, np.minimum(x, q - x)


def _check_shape(space: LensSpace, what: str, two_blocks=True, max_padding=None) -> None:
    """Refuse a descriptor outside the domain of the operation ``what``.

    The domain is two rotation blocks, or any number when ``two_blocks``
    is False, and at most ``max_padding`` padded coordinates, or any
    number when it is None.  This is the one rotation-count and padding
    gate of the single-descriptor operations.
    """
    if (two_blocks and space.n != 2) or (max_padding is not None and space.padding > max_padding):
        shape = "two rotation blocks" if two_blocks else "any rotation count"
        if max_padding is not None:
            shape += " and padding=" + " or ".join(map(str, range(max_padding + 1)))
        raise UnsupportedShape(f"{what} needs {shape}, got n={space.n}, padding={space.padding}")


def _check_pair_shape(first: LensSpace, second: LensSpace) -> None:
    """Refuse a pair whose rotation counts or paddings differ."""
    if first.n != second.n or first.padding != second.padding:
        raise ShapeMismatch(
            f"shape mismatch: n={first.n},W={first.padding} vs n={second.n},W={second.padding}"
        )


def is_isometric(first: LensSpace, second: LensSpace) -> Optional[IsometryWitness]:
    """Witness for an isometry between the two quotients, or None.

    Takes the first unit multiplier l mod q, in ascending order, whose
    sorted sign-folded row equals the target's.  The entries of l times
    the first rotation vector then pair with the second's in that sorted
    folded order, equal folds in index order; each sign is +1 where the
    paired entries agree and -1 where they are negatives.  The trivial
    group (q = 1, unit 1) gives the identity witness.  Distinct group
    orders can never be isometric.
    """
    _check_pair_shape(first, second)
    if first.q != second.q:
        return None
    q = first.q
    ls, folded = _folded_orbit(first)
    target = np.array([min(p, q - p) for p in second.rotations])
    hits = np.flatnonzero((np.sort(folded, axis=1) == np.sort(target)).all(axis=1))
    if not hits.size:
        return None
    l = int(ls[hits[0]])
    src = np.argsort(folded[hits[0]], kind="stable").tolist()
    dst = np.argsort(target, kind="stable").tolist()
    perm = [j for _, j in sorted(zip(src, dst))]
    signs = [1 if second.rotations[j] == l * p % q else -1 for p, j in zip(first.rotations, perm)]
    return IsometryWitness(l, tuple(signs), tuple(perm))


def apply_witness(witness: IsometryWitness, space: LensSpace) -> tuple[int, ...]:
    """Rotation vector produced by acting with the witness on ``space``."""
    q = space.q
    out = [0] * space.n
    for i, p in enumerate(space.rotations):
        out[witness.permutation[i]] = (witness.signs[i] * witness.unit * p) % q
    return tuple(out)


def canonical_form(space: LensSpace) -> LensSpace:
    """Smallest descriptor in the isometry orbit.

    Minimises the sorted rotation vector lexicographically over every
    unit multiplier, sign pattern and permutation: the least of the
    sorted sign-folded rows.  Two descriptors are isometric iff their
    canonical forms are equal.
    """
    rows = np.sort(_folded_orbit(space)[1], axis=1)
    best = rows[np.lexsort(rows.T[::-1])[0]]
    return LensSpace(space.q, tuple(best.tolist()), space.padding)


def decompose_singular(space: LensSpace) -> SingularDecomposition:
    """gcd/isotropy decomposition of a two-rotation descriptor."""
    _check_shape(space, "decompose_singular")
    q = space.q
    p1, p2 = space.rotations
    q1 = math.gcd(p1, q)
    q2 = math.gcd(p2, q)
    alpha_hat = q // q1
    beta_hat = q // q2
    g = math.gcd(alpha_hat, beta_hat)
    return SingularDecomposition(q1, q2, alpha_hat, beta_hat, g, alpha_hat // g, beta_hat // g)


def pad(space: LensSpace, extra: int) -> LensSpace:
    """Append ``extra`` fixed coordinates; the isometry class correspondence
    between padded and unpadded descriptors is preserved."""
    if extra <= 0:
        raise PreconditionViolated(f"extra padding must be positive, got {extra}")
    return LensSpace(space.q, space.rotations, space.padding + extra)
