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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidOrder,
    PreconditionViolated,
    UnsupportedRank,
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
]


@dataclass(frozen=True)
class LensSpace:
    """Reduced lens-space descriptor.

    q         -- order of the acting cyclic group;
    rotations -- residues p_1..p_n, each in [1, q-1] (all zero only in
                 the trivial-group case q = 1);
    padding   -- number W of appended fixed coordinates.

    The ambient sphere dimension is 2n + W - 1.
    """

    q: int
    rotations: tuple[int, ...]
    padding: int = 0

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 1:
            raise InvalidOrder(f"q must be a positive integer, got {self.q!r}")
        object.__setattr__(self, "rotations", tuple(int(p) for p in self.rotations))
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

    def is_manifold(self) -> bool:
        """True when the action is free (every rotation coprime to q)."""
        return all(math.gcd(p, self.q) == 1 for p in self.rotations)

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
    ``padding`` (use :func:`sphere` for the trivial group).
    """
    if not isinstance(q, int) or q <= 0:
        raise InvalidOrder(f"q must be a positive integer, got {q!r}")
    raw = [int(r) for r in raw]
    if not raw:
        raise PreconditionViolated("rotation list must be non-empty")
    if padding < 0:
        raise PreconditionViolated(f"padding must be >= 0, got {padding}")
    g = math.gcd(q, *raw)
    q_red = q // g
    entries = tuple((r // g) % q_red for r in raw) if q_red > 1 else tuple(0 for _ in raw)
    if q_red == 1 or any(e == 0 for e in entries):
        if q_red == 1:
            raise ZeroRotation(
                f"input reduces to the trivial group (q={q}, gcd={g}); "
                "construct the sphere with sphere(n, padding)"
            )
        raise ZeroRotation(
            f"rotation divisible by reduced order {q_red}; model it as padding"
        )
    return LensSpace(q_red, entries, padding)


def sphere(n: int = 2, padding: int = 0) -> LensSpace:
    """Trivial-group descriptor: the round sphere S^(2n+padding-1)."""
    if n < 1:
        raise PreconditionViolated(f"n must be >= 1, got {n}")
    return LensSpace(1, (0,) * n, padding)


def units(q: int) -> list[int]:
    """Multiplicative units mod q (as representatives 1..q)."""
    return [l for l in range(1, q + 1) if math.gcd(l, q) == 1]


def _folded_orbit(space: LensSpace, ls: Optional[np.ndarray] = None) -> list[np.ndarray]:
    """Sign-folded residues min(l p mod q, q - l p mod q) over the units l.

    One int64 array per rotation p, indexed like ``ls``, which defaults
    to ``units(space.q)`` in ascending order.
    """
    q = space.q
    if ls is None:
        ls = np.asarray(units(q), dtype=np.int64)
    folded = []
    for p in space.rotations:
        x = ls * p % q
        folded.append(np.minimum(x, q - x))
    return folded


def is_isometric(first: LensSpace, second: LensSpace) -> Optional[IsometryWitness]:
    """Witness for an isometry between the two quotients, or None.

    Takes the first unit multiplier l mod q, in ascending order, whose
    sorted sign-folded row equals the target's; for that l the per-entry
    signs and the permutation are rebuilt explicitly.  Distinct group
    orders can never be isometric.
    """
    if first.n != second.n or first.padding != second.padding:
        raise DimensionMismatch(
            f"shape mismatch: n={first.n},W={first.padding} vs n={second.n},W={second.padding}"
        )
    if first.q != second.q:
        return None
    q, n = first.q, first.n
    if q == 1:
        return IsometryWitness(1, (1,) * n, tuple(range(n)))
    ls = np.asarray(units(q), dtype=np.int64)
    rows = np.sort(np.column_stack(_folded_orbit(first, ls)), axis=1)
    target = sorted(min(p, q - p) for p in second.rotations)
    hits = np.flatnonzero((rows == target).all(axis=1))
    if not hits.size:
        return None
    l = int(ls[hits[0]])
    signs = [0] * n
    perm = [-1] * n
    used = [False] * n
    for i, p in enumerate(first.rotations):
        v = (l * p) % q
        for j, t in enumerate(second.rotations):
            if used[j]:
                continue
            if t == v:
                signs[i], perm[i], used[j] = 1, j, True
                break
            if t == q - v:
                signs[i], perm[i], used[j] = -1, j, True
                break
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
    if space.q == 1:
        return space
    rows = np.sort(np.column_stack(_folded_orbit(space)), axis=1)
    best = rows[np.lexsort(rows.T[::-1])[0]]
    return LensSpace(space.q, tuple(best.tolist()), space.padding)


def decompose_singular(space: LensSpace) -> SingularDecomposition:
    """gcd/isotropy decomposition of a two-rotation descriptor."""
    if space.n != 2:
        raise UnsupportedRank(f"decomposition needs exactly 2 rotations, got {space.n}")
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
