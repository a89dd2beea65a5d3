"""Exhaustive desk-scale sweeps over lens-space quotients.

Each group order's isometry classes come as two sorted int64 columns
(p1, p2) of canonical rotations, read off their unit normal form
(:func:`_class_columns`) in O(q) memory.  The sweep mode's keys
(:data:`SWEEP_MODES`) are computed from the columns: the hash of a
spectral prefix for the rigidity sweep, the heat matching key for the
degeneracy sweep.  Every fingerprint is prefix-first: classes are
counted as blocks of padding-0 multiplicity rows through the prefix
depth q/2 + 2 (:func:`_prefix_depth`), which separates every pair of
distinct classes measured so far, in both paddings.  The rigidity keys
are hashes of those rows, counted one kernel slice of classes at a time.
Whole buckets are counted together in blocks of at most as many rows as
the largest bucket, and bucket-mates are compared there, a chunk of
pairs at a time; only a pair that agrees through the prefix is deepened
to the certifying depth of :func:`orbilens.spectrum.is_isospectral` and
compared there, so every verdict and first differing degree is exact.
A pair with equal spectra is a rigidity finding (an isospectral pair;
none are expected), and a pair whose spectra differ is a heat-degenerate
finding.  All C(classes, 2) pairs are decided, but only bucket-mates
are compared, so an order holds its class columns, one key per class
and the prefix rows of one block.  Every counting grid, key slice and
chunk of comparisons fits the one memory budget
:data:`orbilens._kernels.CHUNK_CELLS`, read at call time.
Orders are independent work units, swept one at a time in ascending
order.  Each yields a :class:`PerQ` row and its :class:`Findings`: int64
columns (i, j, k) over the :class:`~orbilens.core.LensSpace` of each
class in a finding, built once per class.  A :class:`PairReport` is
built per finding only when the findings are iterated.  The rows are the
one source of every sweep total: :func:`summarize_sweep` only collects
the rows and the pair reports, and
:func:`orbilens.records.summary_record` reads the totals off the rows,
so the CLI, which writes each order's findings off the columns and
then drops them, gets the same summary as the library.

Orders below 8 sit outside the classical hypotheses of the rigidity
statements and are flagged separately instead of being counted as
counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Optional

import numpy as np

from . import _kernels
from .core import LensSpace, _integer, _order, _units
from .errors import PreconditionViolated
from .heat import HeatVerdict, _heat_keys
from .spectrum import isospectral_bound, multiplicity_series

__all__ = [
    "Findings",
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

# Largest order a sweep accepts.  An order holds its class columns, one
# key per class, the prefix rows of one block of buckets and its
# findings, all O(q) but the findings.  A rigidity order at this cap
# peaks at 30 MB RSS, about the interpreter and numpy alone; the
# heat-degenerate order q = 3990 at 61 MB, whose largest bucket of 432
# classes takes 6.6 MiB of prefix rows (q/2 + 3 wide) while its 202 872
# findings are held as three int64 columns (4.6 MiB).
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


@dataclass(frozen=True, eq=False)
class Findings:
    """One order's findings, as columns over the classes that appear in them.

    ``classes`` holds each such class once, in class order.  Finding r
    pairs ``classes[i[r]]`` with ``classes[j[r]]`` and first differs at
    degree ``k[r]``, or -1 for an isospectral pair; ``heat_verdict`` is
    the sweep mode's.  Iterating gives one :class:`PairReport` per
    finding.
    """

    classes: tuple[LensSpace, ...]
    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    heat_verdict: Optional[str]

    def __len__(self) -> int:
        return len(self.k)

    def __iter__(self) -> Iterator[PairReport]:
        c = self.classes
        for i, j, k in zip(self.i.tolist(), self.j.tolist(), self.k.tolist()):
            yield PairReport(c[i], c[j], None if k < 0 else k, self.heat_verdict)


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

    The representatives are the rows of :func:`_class_columns`, in its
    ascending order, each the :func:`canonical_form` of its class.
    """
    q = _order(q)
    p1, p2, spaces = _class_columns(q)
    return [LensSpace(q, rots, padding) for rots in zip(p1.tolist(), p2.tolist())], spaces


def _class_columns(q: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Canonical rotations (p1, p2) of every class of order q, and the raw space count.

    The classes come as two int64 columns sorted by (p1, p2).  A class's
    canonical form is its least sorted row of folded residues
    fold(x) = min(x, q - x).  With a = gcd(p1, q) and b = gcd(p2, q),
    which are coprime and the same for every member, its least entry is
    min(a, b): the rotation of that gcd scales to it.  The order's units
    come from :func:`orbilens.core._units`, which refuses an order above
    MAX_UNIT_ORDER before anything of size q is allocated.  There are
    two cases:

    - Both rotations are units.  The class scales one to 1, so it is
      (1, x) with x a unit and x <= q/2.  The only other such rows come
      from x^-1, so (1, x) is canonical iff x <= fold(x^-1).
    - Otherwise 1 <= a < b, and the units that keep a up to sign are
      those u = +-1 mod q/a.  On y = b z they act through z mod m = q/b
      as the units of Z_m that are +-1 mod n = m/a, whose orbits are the
      units z of Z_m with equal fold(z mod n).  The canonical y is b
      times the least z of each such label.  At a = 1 those units are
      +-1 mod q, so every unit z <= m/2 is its own label.
    """
    if q == 1:
        zero = np.zeros(1, np.int64)
        return zero, zero, 1
    units = _units(q)
    u = units[units <= q // 2]
    inv = np.array([pow(v, -1, q) for v in u.tolist()], np.int64)
    u = u[u <= np.minimum(inv, q - inv)]
    x = np.arange(1, q, dtype=np.int64)
    divisors = x[q % x == 0]
    at, bt = np.nonzero((divisors[:, None] < divisors) & (np.gcd.outer(divisors, divisors) == 1))
    a, b = divisors[at], divisors[bt]
    m = q // b
    n = m // a
    # z = 1 .. m/2 for each (a, b); every label's least z is at most m/2.
    length = m // 2
    row = np.repeat(np.arange(len(a)), length)
    z = np.arange(len(row)) - np.repeat(np.cumsum(length) - length, length) + 1
    coprime = np.gcd(z, m[row]) == 1
    row, z = row[coprime], z[coprime]
    r = z % n[row]
    labels = n // 2 + 1
    label = np.minimum(r, n[row] - r) + (np.cumsum(labels) - labels)[row]
    least = np.full(int(labels.sum()), q, np.int64)
    np.minimum.at(least, label, z)
    pick = least[label] == z
    p1 = np.concatenate((np.ones(len(u), np.int64), a[row[pick]]))
    p2 = np.concatenate((u, b[row[pick]] * z[pick]))
    order = np.lexsort((p2, p1))
    return p1[order], p2[order], _reduced_pair_count(q, len(units))


def _reduced_pair_count(q: int, phi: int) -> int:
    """Rotation pairs 1 <= p1 <= p2 < q with gcd(p1, p2, q) = 1.

    Of the J_2(q) = q^2 prod_{p | q} (1 - p^-2) pairs in Z_q^2 with gcd 1
    (Jordan's totient), 2 phi(q) have a zero entry and phi(q) are diagonal.
    The primes of q are found by trial division up to the square root of
    what is left of q; a remainder above 1 is the last prime.
    """
    j2, rest, p = q * q, q, 2
    while p * p <= rest:
        if rest % p == 0:
            j2 -= j2 // (p * p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        j2 -= j2 // (rest * rest)
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


def _sweep_order(q: int, padding: int, mode: str) -> tuple[PerQ, Findings]:
    # Classes are bucketed by the mode's keys, and only bucket-mates are
    # compared, exactly, so a key collision cannot make a finding.  Heat
    # findings share a matching key, so their heat expansions are equal by
    # the isotropy lemma.
    keys, isospectral = SWEEP_MODES[mode]
    p1, p2, spaces = _class_columns(q)
    count = len(p1)
    i, j, k = _findings(q, p1, p2, padding, keys(q, p1, p2), isospectral)
    used = np.zeros(count, bool)
    used[i] = used[j] = True
    rotations = zip(p1[used].tolist(), p2[used].tolist())
    classes = tuple(LensSpace(q, rots, padding) for rots in rotations)
    index = np.cumsum(used) - 1
    verdict = None if isospectral else HeatVerdict.GUARANTEED_EQUAL.value
    findings = Findings(classes, index[i], index[j], k, verdict)
    return PerQ(q, spaces, count, comb(count, 2), len(k)), findings


def _prefix_depth(q: int) -> int:
    """Degree through which an order's classes are fingerprinted for keys and buckets.

    Every pair of distinct classes of an order up to 256 first differs
    by degree q/2 + 1, and at even q some pair differs no earlier (see
    :func:`isospectral_bound`).  A pair that agrees through this depth
    is deepened to the certifying bound 4q + 2, so the depth sets speed
    only.
    """
    return q // 2 + 2


def _prefix_rows(q: int, p1: np.ndarray, p2: np.ndarray, depth: int) -> np.ndarray:
    """Padding-0 multiplicities through ``depth`` of the classes (p1, p2) of order q, one row each.

    A padded coordinate is an invertible prefix sum, so two classes'
    padding-0 rows agree through a degree exactly when their rows at
    any padding do, and first differ at the same degree.
    """
    return _kernels.multiplicity_rows(zip(p1.tolist(), p2.tolist()), q, depth)


def _findings(q, p1, p2, padding, keys, isospectral):
    """Columns (i, j, first_differing_k) of the bucket-mate pairs that are findings.

    A bucket is a run of equal keys, its members in class order.  Whole
    buckets are counted together in blocks of at most as many rows as
    the largest bucket, so small buckets share one count and an order
    holds no more rows than its largest bucket.  The columns are sorted
    by class index pair.
    """
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    edges = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
    sizes = np.diff(np.concatenate(([0], edges, [len(keys)])))
    order, sizes = order[np.repeat(sizes > 1, sizes)], sizes[sizes > 1].tolist()
    largest = max(sizes, default=0)
    parts, block, start = [], [], 0
    for size in [*sizes, largest]:
        # The last entry only closes the last block.
        if sum(block) + size > largest:
            members = order[start : start + sum(block)]
            parts.append(_block_findings(q, p1, p2, padding, members, block, isospectral))
            start, block = start + len(members), []
        block.append(size)
    if not parts:
        return (np.zeros(0, np.int64),) * 3
    first, second, k = map(np.concatenate, zip(*parts))
    by_pair = np.lexsort((second, first))
    return first[by_pair], second[by_pair], k[by_pair]


def _block_findings(q, p1, p2, padding, members, sizes, isospectral):
    """Columns (i, j, k) of the findings among one block's buckets.

    ``members`` holds the block's classes, bucket after bucket of the
    given sizes.  Their prefix rows are counted as one block, and
    every pair of bucket-mates is compared there, a chunk of pairs whose
    rows fill CHUNK_CELLS at a time: a pair that differs there first
    differs where its rows do.
    Only a pair that agrees through the prefix is deepened: both spectra
    through the certifying depth of is_isospectral, each computed once
    per block.  The k of an isospectral pair is -1.
    """
    rows = _prefix_rows(q, p1[members], p2[members], _prefix_depth(q))
    # Row r is paired with the later rows of its bucket.
    later = np.repeat(np.cumsum(sizes), sizes) - np.arange(len(members)) - 1
    a = np.repeat(np.arange(len(members)), later)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(later) - later, later)
    k = np.empty(len(a), np.int64)
    step = max(1, _kernels.CHUNK_CELLS // rows.shape[1])
    for lo in range(0, len(a), step):
        differ = rows[a[lo : lo + step]] != rows[b[lo : lo + step]]
        first = differ.argmax(axis=1)
        k[lo : lo + step] = np.where(differ[np.arange(len(first)), first], first, -1)
    i, j = members[a], members[b]
    deep: dict[int, np.ndarray] = {}
    for r in np.flatnonzero(k < 0).tolist():
        pair = int(i[r]), int(j[r])
        for c in pair:
            if c not in deep:
                space = LensSpace(q, (int(p1[c]), int(p2[c])), padding)
                deep[c] = multiplicity_series(space, isospectral_bound(space))
        differ = np.flatnonzero(deep[pair[0]] != deep[pair[1]])
        k[r] = differ[0] if differ.size else -1
    hit = k < 0 if isospectral else k >= 0
    return i[hit], j[hit], k[hit]


def _prefix_keys(q: int, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Rigidity keys: the hash of each class's padding-0 prefix row.

    Classes are counted one kernel slice at a time
    (:func:`orbilens._kernels.rows_per_slice`), so an order holds one
    slice's rows and one int64 key per class.
    """
    depth = _prefix_depth(q)
    chunk = _kernels.rows_per_slice(depth)
    keys = np.empty(len(p1), np.int64)
    for lo in range(0, len(p1), chunk):
        rows = _prefix_rows(q, p1[lo : lo + chunk], p2[lo : lo + chunk], depth)
        keys[lo : lo + chunk] = [hash(row.tobytes()) for row in rows]
    return keys


# Each sweep mode's bucket keys, an int64 column with one key per class
# of an order's columns (q, p1, p2), and whether its findings are the
# isospectral pairs (rigidity) or the pairs whose spectra differ
# (heat-degenerate).  The CLI offers the modes as its --mode choices, in
# this order.
SWEEP_MODES = {
    "rigidity": (_prefix_keys, True),
    "heat-degenerate": (_heat_keys, False),
}


def sweep_stream(
    mode: str, qmin: int, qmax: int, padding: int = 0
) -> Iterator[tuple[PerQ, Findings]]:
    """Each order's :class:`PerQ` row and :class:`Findings`, in ascending order.

    Orders are computed one at a time, as the stream is read.  The
    range, the padding and the mode are checked by the call itself,
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
    results: Iterable[tuple[PerQ, Iterable[PairReport]]],
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
