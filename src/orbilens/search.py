"""Exhaustive desk-scale sweeps over lens-space quotients.

Enumerates one canonical representative per isometry class for each
group order, then buckets the order's classes by the sweep mode's keys
(:data:`SWEEP_MODES`): the hash of a spectral prefix for the rigidity
sweep, the heat matching key for the degeneracy sweep.  Every
fingerprint is prefix-first: an order's classes are counted as blocks of
padding-0 multiplicity rows through the prefix depth q/2 + 2
(:func:`_prefix_depth`), which separates every pair of distinct classes
measured so far, in both paddings.  The rigidity keys are hashes of
those rows, counted a chunk of classes at a time.  The members of one
bucket at a time are counted as one block and compared; only a pair
that agrees through the prefix is deepened to the certifying depth of
:func:`orbilens.spectrum.is_isospectral` and compared there, so every
verdict and first differing degree is exact.  A pair with equal spectra
is a rigidity finding (an isospectral pair; none are expected), and a
pair whose spectra differ is a heat-degenerate finding.  All
C(classes, 2) pairs are decided, but only bucket-mates are compared, so
an order holds its classes, one key per class and the prefix rows of
one bucket.
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

from ._kernels import multiplicity_rows
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
# class, the prefix rows of one bucket and its findings.  The
# (q/2 + 1)^2 table of isometry_classes sets the peak of both modes:
# about 70 MB RSS for rigidity at this cap, and 75 MB for the
# heat-degenerate order q = 3990, whose largest bucket of 432 classes
# takes 6.6 MiB of prefix rows (q/2 + 3 wide) while its 22 MiB of
# findings are held.
MAX_SWEEP_ORDER = 4096

# Cells of the block of prefix rows counted at once for rigidity keys
# (128 KiB).  Blocks of 2^13 to 2^16 cells counted the keys of an order
# equally fast at q = 400, 1024, 2048 and 4004; a block this small keeps
# a rigidity order's peak that of its enumeration.
KEY_CHUNK_CELLS = 1 << 14


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
    # Classes are bucketed by the mode's keys; a class without a key is
    # never paired, and an order of one class takes no keys.  Only
    # bucket-mates are compared, exactly, so a key collision cannot make
    # a finding.  Findings are sorted by class
    # index pair.  Heat findings share a matching key, so their heat
    # expansions are equal by the isotropy lemma.
    keys, isospectral = SWEEP_MODES[mode]
    classes, spaces = isometry_classes(q, padding)
    buckets: dict[Hashable, list[int]] = {}
    if len(classes) > 1:
        for i, key in enumerate(keys(classes)):
            buckets.setdefault(key, []).append(i)
    buckets.pop(None, None)
    pairs = sorted(pair for members in buckets.values() if len(members) > 1
                   for pair in _bucket_findings(classes, members, isospectral))
    verdict = None if isospectral else HeatVerdict.GUARANTEED_EQUAL.value
    findings = [PairReport(classes[i], classes[j], k, verdict) for i, j, k in pairs]
    return PerQ(q, spaces, len(classes), comb(len(classes), 2), len(findings)), findings


def _prefix_depth(space: LensSpace) -> int:
    """Degree through which an order's classes are fingerprinted for keys and buckets.

    Every pair of distinct classes of an order up to 256 first differs
    by degree q/2 + 1, and at even q some pair differs no earlier (see
    :func:`isospectral_bound`).  A pair that agrees through this depth
    is deepened to the certifying bound, so the depth sets speed only.
    """
    return min(isospectral_bound(space), space.q // 2 + 2)


def _prefix_rows(classes: list[LensSpace], depth: int) -> np.ndarray:
    """Padding-0 multiplicities through ``depth`` of same-order classes, one row each.

    A padded coordinate is an invertible prefix sum, so two classes'
    padding-0 rows agree through a degree exactly when their rows at
    any padding do, and first differ at the same degree.
    """
    return multiplicity_rows([c.rotations for c in classes], classes[0].q, depth)


def _bucket_findings(classes: list[LensSpace], members: list[int], isospectral: bool):
    """Index pairs (i, j, first_differing_k) of one bucket that are findings.

    The members are fingerprinted through the prefix depth into one
    matrix, one row per member, and each row is compared with every
    later row in one step.  A pair that differs there differs first
    where its rows do.  Only a pair that agrees through the prefix is
    deepened: both spectra through the certifying depth of
    is_isospectral, each computed once per bucket.
    """
    rows = _prefix_rows([classes[i] for i in members], _prefix_depth(classes[members[0]]))
    deep: dict[int, np.ndarray] = {}
    for r, i in enumerate(members[:-1]):
        differ = rows[r + 1 :] != rows[r]
        found = differ.any(axis=1)
        if not isospectral:
            first = differ.argmax(axis=1)
            for s in np.flatnonzero(found):
                yield i, members[r + 1 + s], int(first[s])
        for s in np.flatnonzero(~found):
            j = members[r + 1 + s]
            for m in (i, j):
                if m not in deep:
                    deep[m] = multiplicity_series(classes[m], isospectral_bound(classes[m]))
            k = np.flatnonzero(deep[i] != deep[j])
            if (k.size == 0) == isospectral:
                yield i, j, int(k[0]) if k.size else None


def _prefix_keys(classes: list[LensSpace]):
    """Rigidity keys: the hash of each class's padding-0 prefix row.

    Classes are counted a block of KEY_CHUNK_CELLS at a time, so an
    order holds one block's rows and a fixed-size key per class.
    """
    depth = _prefix_depth(classes[0])
    chunk = max(1, KEY_CHUNK_CELLS // (depth + 1))
    for lo in range(0, len(classes), chunk):
        for row in _prefix_rows(classes[lo : lo + chunk], depth):
            yield hash(row.tobytes())


# Each sweep mode's bucket keys, one per class of an order's class list,
# and whether its findings are the isospectral pairs (rigidity) or the
# pairs whose spectra differ (heat-degenerate).  The CLI offers the modes
# as its --mode choices, in this order.
SWEEP_MODES = {
    "rigidity": (_prefix_keys, True),
    "heat-degenerate": (lambda classes: map(_heat_key, classes), False),
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
