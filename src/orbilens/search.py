"""Exhaustive desk-scale sweeps over lens-space quotients.

Enumerates one canonical representative per isometry class for each
group order, then buckets the order's classes by the sweep mode's key
(:data:`SWEEP_MODES`): the hash of a spectral fingerprint for the
rigidity sweep, the heat matching key for the degeneracy sweep.  The
members of one bucket at a time are fingerprinted and compared exactly.
A pair with equal spectra is a rigidity finding (an isospectral pair;
none are expected), and a pair whose spectra differ is a heat-degenerate
finding.  All C(classes, 2) pairs are decided, but only bucket-mates are
compared, so an order holds its classes, one key per class and the
fingerprints of one bucket.
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
from math import comb
from typing import Hashable, Iterable, Iterator, Optional

import numpy as np

from .core import LensSpace, _folded_orbit, _integer, _order, sphere, units
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

# Largest order a sweep accepts.  An order holds its classes, one key per
# class, the fingerprint matrix of one bucket and its findings.  The
# (q/2 + 1)^2 table of isometry_classes sets the rigidity peak, about
# 70 MB RSS at this cap.  A heat-degenerate order peaks higher (104 MB at
# q = 3990) through its largest bucket: 432 classes whose full-depth
# int64 matrix takes 53 MiB, and 7 MiB more for the bool temporary of one
# row's comparison, against 22 MiB for the findings it holds.
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
    q = _order(q)
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
    if _integer(padding, "padding") not in (0, 1):
        raise PreconditionViolated(f"padding must be 0 or 1, got {padding}")
    if not 1 <= _integer(qmin, "qmin") <= _integer(qmax, "qmax"):
        raise PreconditionViolated(f"invalid order range [{qmin}, {qmax}]")
    if qmax > MAX_SWEEP_ORDER:
        raise PreconditionViolated(
            f"order {qmax} exceeds the sweep limit of {MAX_SWEEP_ORDER}"
        )


def _sweep_order(q: int, padding: int, mode: str) -> tuple[PerQ, list[PairReport]]:
    # Classes are bucketed by the mode's key; a class without a key is
    # never paired.  Only bucket-mates are compared, exactly, so a key
    # collision cannot make a finding.  Findings are sorted by class
    # index pair.  Heat findings share a matching key, so their heat
    # expansions are equal by the isotropy lemma.
    key, isospectral = SWEEP_MODES[mode]
    classes, spaces = isometry_classes(q, padding)
    buckets: dict[Hashable, list[int]] = {}
    for i, c in enumerate(classes):
        buckets.setdefault(key(c), []).append(i)
    buckets.pop(None, None)
    pairs = sorted(pair for members in buckets.values() if len(members) > 1
                   for pair in _bucket_findings(classes, members, isospectral))
    verdict = None if isospectral else HeatVerdict.GUARANTEED_EQUAL.value
    findings = [PairReport(classes[i], classes[j], k, verdict) for i, j, k in pairs]
    return PerQ(q, spaces, len(classes), comb(len(classes), 2), len(findings)), findings


def _bucket_findings(classes: list[LensSpace], members: list[int], isospectral: bool):
    """Index pairs (i, j, first_differing_k) of one bucket that are findings.

    The members are fingerprinted through the certifying depth of
    is_isospectral into one matrix, one row per member, and each row is
    compared with every later row in one step.  Bucket-mates share an
    order and a padding, so the first row sets the width.  The matrix is
    released when the bucket is done.
    """
    series = (multiplicity_series(classes[i], isospectral_bound(classes[i])) for i in members)
    row = next(series)
    rows = np.empty((len(members), row.size), dtype=np.int64)
    rows[0] = row
    for r, row in enumerate(series, 1):
        rows[r] = row
    for r, i in enumerate(members[:-1]):
        differ = rows[r + 1 :] != rows[r]
        found, first = differ.any(axis=1), differ.argmax(axis=1)
        for s in np.flatnonzero(found != isospectral):
            yield i, members[r + 1 + s], int(first[s]) if found[s] else None


# Each sweep mode's bucket key, and whether its findings are the
# isospectral pairs (rigidity) or the pairs whose spectra differ
# (heat-degenerate).  The rigidity key is the hash of a fingerprint, so
# an order holds a fixed-size key per class.  The CLI offers the modes as
# its --mode choices, in this order.
SWEEP_MODES = {
    "rigidity": (lambda c: hash(multiplicity_series(c, isospectral_bound(c)).tobytes()), True),
    "heat-degenerate": (_heat_key, False),
}


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
    return (_sweep_order(q, padding, mode) for q in range(qmin, qmax + 1))


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
