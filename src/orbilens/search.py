"""Exhaustive desk-scale sweeps over lens-space quotients.

Enumerates one canonical representative per isometry class for each
group order, then pairs same-order classes through key buckets: classes
sharing a spectral fingerprint are the isospectral pairs (rigidity
sweep, where none are expected), and classes sharing a heat matching key
whose spectra differ are the heat-degenerate pairs (degeneracy sweep).
All C(classes, 2) pairs are decided, but only bucket-mates are touched.
Orders are independent work units, swept one at a time in ascending
order.  Each yields a :class:`PerQ` row, and those rows are the one
source of every sweep total: :func:`summarize_sweep` only collects the
rows and the pair reports, and :func:`orbilens.records.summary_record`
reads the totals off the rows, so the CLI, which drops each order's
reports once written, gets the same summary as the library.

Orders below 8 sit outside the classical hypotheses of the rigidity
statements and are flagged separately instead of being counted as
counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Hashable, Iterable, Iterator, Optional

import numpy as np

from .core import LensSpace, _folded_orbit, sphere, units
from .errors import PreconditionViolated
from .heat import HeatVerdict, _heat_key
from .spectrum import isospectral_bound, multiplicity_series

__all__ = [
    "PairReport",
    "PerQ",
    "SweepSummary",
    "isometry_classes",
    "sweep_stream",
    "summarize_sweep",
    "verify_rigidity",
    "find_heat_degenerate",
    "SMALL_Q_LIMIT",
    "MAX_SWEEP_ORDER",
]

# Orders with q0 = floor(q/2) (even) or (q-1)/2 (odd) below 4 are reported
# separately from the rigidity count.
SMALL_Q_LIMIT = 8

# Largest order a sweep accepts: one order keeps every class fingerprint,
# classes x (4q + 3) int64, in memory; about 400 MB peak RSS at the worst
# orders up to this cap.
MAX_SWEEP_ORDER = 4096


@dataclass(frozen=True)
class PairReport:
    """What a sweep decides about one same-order pair of canonical classes.

    ``first_differing_k`` is the first degree whose multiplicities
    differ, or None for an isospectral pair; ``heat_verdict`` is set by
    the heat-degenerate sweep.  Distinct class representatives are never
    isometric, so a report carries no isometry verdict or witness.
    """

    first: LensSpace
    second: LensSpace
    first_differing_k: Optional[int]
    heat_verdict: Optional[str] = None

    @property
    def isospectral(self) -> bool:
        return self.first_differing_k is None


@dataclass(frozen=True)
class PerQ:
    q: int
    spaces: int
    classes: int
    pairs: int
    findings: int


@dataclass(frozen=True)
class SweepSummary:
    """The per-order rows and pair reports of one sweep.

    ``small_q_findings`` holds the reports at orders below
    SMALL_Q_LIMIT and ``findings`` the rest.  Totals are not stored:
    each is a sum over ``per_q``, taken by
    :func:`orbilens.records.summary_record`.
    """

    mode: str
    qmin: int
    qmax: int
    padding: int
    findings: tuple[PairReport, ...]
    small_q_findings: tuple[PairReport, ...]
    per_q: tuple[PerQ, ...]


def isometry_classes(q: int, padding: int = 0) -> tuple[list[LensSpace], int]:
    """Canonical class representatives for one order, plus the raw space count.

    Scans the sign-folded sorted pairs 1 <= a <= b <= q // 2 with
    gcd(a, b, q) = 1 in ascending order.  The first pair not yet marked
    is the smallest member of its orbit, hence the :func:`canonical_form`
    representative; it is emitted and its whole orbit under the units
    is marked in one vectorised step, so the cost is classes x units.
    """
    if q == 1:
        return [sphere(2, padding)], 1
    h = q // 2
    a, b = np.ogrid[: h + 1, : h + 1]
    todo = (0 < a) & (a <= b) & (np.gcd(np.gcd(a, q), b) == 1)
    flat = todo.ravel()
    ls = np.asarray(units(q), dtype=np.int64)
    classes = []
    at = 0
    while True:
        at += int(flat[at:].argmax())
        if not flat[at]:
            break
        p1, p2 = divmod(at, h + 1)
        classes.append(LensSpace(q, (p1, p2), padding))
        x, y = _folded_orbit(classes[-1], ls)
        todo[np.minimum(x, y), np.maximum(x, y)] = False
    return classes, _reduced_pair_count(q, len(ls))


def _reduced_pair_count(q: int, phi: int) -> int:
    """Rotation pairs 1 <= p1 <= p2 < q with gcd(p1, p2, q) = 1.

    Of the J_2(q) = q^2 prod_{p | q} (1 - p^-2) pairs in Z_q^2 with gcd 1
    (Jordan's totient), 2 phi(q) have a zero entry and phi(q) are diagonal.
    """
    j2, rest = q * q, q
    for p in range(2, q + 1):
        if rest % p == 0:
            j2 -= j2 // (p * p)
            while rest % p == 0:
                rest //= p
    return (j2 - phi) // 2


def _check_range(qmin: int, qmax: int, padding: int) -> None:
    if padding not in (0, 1):
        raise PreconditionViolated(f"padding must be 0 or 1, got {padding}")
    if not 1 <= qmin <= qmax:
        raise PreconditionViolated(f"invalid order range [{qmin}, {qmax}]")
    if qmax > MAX_SWEEP_ORDER:
        raise PreconditionViolated(
            f"order {qmax} exceeds the sweep limit of {MAX_SWEEP_ORDER}"
        )


def _bucket_pairs(keys: Iterable[Optional[Hashable]]) -> list[tuple[int, int]]:
    """Index pairs i < j with equal keys, skipping None keys, ascending."""
    buckets: dict[Hashable, list[int]] = {}
    for i, key in enumerate(keys):
        if key is not None:
            buckets.setdefault(key, []).append(i)
    return sorted(pair for members in buckets.values() for pair in combinations(members, 2))


def _rigidity_slice(q: int, padding: int) -> tuple[PerQ, list[PairReport]]:
    # Fingerprints run through the certifying depth of is_isospectral,
    # so a fingerprint bucket holds isospectral classes.
    classes, spaces = isometry_classes(q, padding)
    pairs = _bucket_pairs(multiplicity_series(c, isospectral_bound(c)).tobytes() for c in classes)
    findings = [PairReport(classes[i], classes[j], None) for i, j in pairs]
    return PerQ(q, spaces, len(classes), comb(len(classes), 2), len(findings)), findings


def _heat_slice(q: int, padding: int) -> tuple[PerQ, list[PairReport]]:
    # Distinct class representatives are never isometric, so the heat
    # verdict of a pair reduces to comparing their matching keys.  Each
    # class sharing its key is fingerprinted once through the certifying
    # depth of is_isospectral.
    classes, spaces = isometry_classes(q, padding)
    pairs = _bucket_pairs(_heat_key(c) for c in classes)
    keyed = {i for pair in pairs for i in pair}
    series = {i: multiplicity_series(classes[i], isospectral_bound(classes[i])) for i in keyed}
    findings = []
    for i, j in pairs:
        differ = np.flatnonzero(series[i] != series[j])
        if differ.size:
            findings.append(PairReport(classes[i], classes[j], int(differ[0]),
                                       HeatVerdict.GUARANTEED_EQUAL.value))
    return PerQ(q, spaces, len(classes), comb(len(classes), 2), len(findings)), findings


# The per-order worker of each sweep mode; the CLI offers the keys as
# its --mode choices, in this order.
SWEEP_MODES = {"rigidity": _rigidity_slice, "heat-degenerate": _heat_slice}


def sweep_stream(
    mode: str, qmin: int, qmax: int, padding: int = 0
) -> Iterator[tuple[PerQ, list[PairReport]]]:
    """Per-order results in ascending order, yielded one order at a time.

    The range, the padding and the mode are checked by the call itself,
    before any order is computed.
    """
    _check_range(qmin, qmax, padding)
    if not isinstance(mode, str) or mode not in SWEEP_MODES:
        raise PreconditionViolated(f"unknown sweep mode {mode!r}")
    return (SWEEP_MODES[mode](q, padding) for q in range(qmin, qmax + 1))


def summarize_sweep(
    mode: str,
    qmin: int,
    qmax: int,
    padding: int,
    results: Iterable[tuple[PerQ, list[PairReport]]],
) -> SweepSummary:
    """Collect per-order results (as from :func:`sweep_stream`).

    Keeps every per-order row and splits the pair reports at
    SMALL_Q_LIMIT; the totals are read off the rows by
    :func:`orbilens.records.summary_record`.
    """
    per_q = []
    findings = []
    small = []
    for row, reports in results:
        per_q.append(row)
        (small if row.q < SMALL_Q_LIMIT else findings).extend(reports)
    return SweepSummary(mode, qmin, qmax, padding, tuple(findings), tuple(small), tuple(per_q))


def _sweep(mode: str, qmin: int, qmax: int, padding: int) -> SweepSummary:
    return summarize_sweep(
        mode, qmin, qmax, padding, sweep_stream(mode, qmin, qmax, padding)
    )


def verify_rigidity(qmin: int, qmax: int, padding: int = 0) -> SweepSummary:
    """Assert that distinct same-order classes are never isospectral.

    Findings are isospectral non-isometric pairs; none are expected at
    any order, and orders below SMALL_Q_LIMIT are tallied apart.
    """
    return _sweep("rigidity", qmin, qmax, padding)


def find_heat_degenerate(qmin: int, qmax: int, padding: int = 0) -> SweepSummary:
    """Collect non-isospectral pairs with provably equal heat expansions."""
    return _sweep("heat-degenerate", qmin, qmax, padding)
