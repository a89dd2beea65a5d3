"""Exhaustive desk-scale sweeps over lens-space quotients.

Enumerates one canonical representative per isometry class for each
group order, then checks every same-order pair: either asserting that
distinct classes are never isospectral (rigidity sweep) or collecting
pairs whose heat-trace expansions provably agree while their spectra
differ (degeneracy sweep).  Orders are independent work units, swept
one at a time in ascending order; :func:`summarize_sweep` folds the
per-order results into the totals for the library and the CLI alike.

Orders below 8 sit outside the classical hypotheses of the rigidity
statements and are flagged separately instead of being counted as
counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .core import IsometryWitness, LensSpace, sphere, units
from .errors import PreconditionViolated, UnsupportedRank
from .heat import HeatVerdict, _heat_key
from .spectrum import is_isospectral, multiplicity_series

__all__ = [
    "PairReport",
    "PerQ",
    "SweepSummary",
    "enumerate_classes",
    "isometry_classes",
    "sweep_stream",
    "summarize_sweep",
    "verify_rigidity",
    "find_heat_degenerate",
    "SMALL_Q_LIMIT",
]

# Orders with q0 = floor(q/2) (even) or (q-1)/2 (odd) below 4 are reported
# separately from the rigidity count.
SMALL_Q_LIMIT = 8

_CHUNK = 4096


@dataclass(frozen=True)
class PairReport:
    """Verdicts for one same-order pair of canonical classes."""

    first: LensSpace
    second: LensSpace
    isometric: bool
    witness: Optional[IsometryWitness]
    isospectral: bool
    first_differing_k: Optional[int]
    heat_verdict: Optional[str] = None


@dataclass(frozen=True)
class PerQ:
    q: int
    spaces: int
    classes: int
    pairs: int
    findings: int


@dataclass(frozen=True)
class SweepSummary:
    mode: str
    qmin: int
    qmax: int
    padding: int
    dimension: int
    spaces: int
    classes: int
    pairs_checked: int
    findings: tuple[PairReport, ...]
    small_q_findings: tuple[PairReport, ...]
    per_q: tuple[PerQ, ...]


def _reduced_pairs(q: int) -> np.ndarray:
    """All reduced rotation pairs (p1 <= p2) for order q, as an (T, 2) array."""
    p1, p2 = np.meshgrid(np.arange(1, q), np.arange(1, q), indexing="ij")
    keep = (p1 <= p2) & (np.gcd(np.gcd(p1, p2), q) == 1)
    return np.stack([p1[keep], p2[keep]], axis=1).astype(np.int64)


def isometry_classes(q: int, padding: int = 0) -> tuple[list[LensSpace], int]:
    """Canonical class representatives for one order, plus the raw space count.

    Canonicalisation minimises the sorted sign-folded rotation vector
    over all unit multipliers; the scan is batched over numpy chunks.
    """
    if q == 1:
        return [sphere(2, padding)], 1
    tuples = _reduced_pairs(q)
    ls = np.asarray(units(q), dtype=np.int64)
    keys = []
    for lo in range(0, tuples.shape[0], _CHUNK):
        chunk = tuples[lo : lo + _CHUNK]
        orbit = (ls[:, None, None] * chunk[None, :, :]) % q
        orbit = np.minimum(orbit, q - orbit)
        orbit.sort(axis=2)
        keys.append((orbit[..., 0] * (q + 1) + orbit[..., 1]).min(axis=0))
    canon = np.unique(np.concatenate(keys))
    classes = [
        LensSpace(q, (int(k // (q + 1)), int(k % (q + 1))), padding) for k in canon
    ]
    return classes, int(tuples.shape[0])


def enumerate_classes(
    qmin: int, qmax: int, n: int = 2, padding: int = 0
) -> Iterator[LensSpace]:
    """One canonical representative per isometry class, q ascending."""
    _check_range(qmin, qmax, n, padding)
    for q in range(qmin, qmax + 1):
        classes, _ = isometry_classes(q, padding)
        yield from classes


def _check_range(qmin: int, qmax: int, n: int, padding: int) -> None:
    if n != 2:
        raise UnsupportedRank(f"sweeps support exactly 2 rotation blocks, got n={n}")
    if padding not in (0, 1):
        raise PreconditionViolated(f"padding must be 0 or 1, got {padding}")
    if not 1 <= qmin <= qmax:
        raise PreconditionViolated(f"invalid order range [{qmin}, {qmax}]")


def _rigidity_slice(q: int, padding: int) -> tuple[PerQ, list[PairReport]]:
    classes, spaces = isometry_classes(q, padding)
    bound = 4 * q + 2
    series = [multiplicity_series(c, bound) for c in classes]
    findings = []
    pairs = 0
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            pairs += 1
            if np.array_equal(series[i], series[j]):
                decision = is_isospectral(classes[i], classes[j])
                findings.append(
                    PairReport(
                        classes[i],
                        classes[j],
                        isometric=False,
                        witness=None,
                        isospectral=True,
                        first_differing_k=decision.first_differing_k,
                    )
                )
    return PerQ(q, spaces, len(classes), pairs, len(findings)), findings


def _heat_slice(q: int, padding: int) -> tuple[PerQ, list[PairReport]]:
    # Distinct class representatives are never isometric, so the heat
    # verdict of a pair reduces to comparing their matching keys.  Only
    # classes with a key can match; each is fingerprinted once through
    # the certifying depth 2nq + 2 of is_isospectral.
    classes, spaces = isometry_classes(q, padding)
    keys = [_heat_key(c) for c in classes]
    bound = 4 * q + 2
    series = [
        None if key is None else multiplicity_series(c, bound)
        for c, key in zip(classes, keys)
    ]
    findings = []
    pairs = 0
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            pairs += 1
            if keys[i] is None or keys[i] != keys[j]:
                continue
            differ = np.flatnonzero(series[i] != series[j])
            if differ.size == 0:
                continue
            findings.append(
                PairReport(
                    classes[i],
                    classes[j],
                    isometric=False,
                    witness=None,
                    isospectral=False,
                    first_differing_k=int(differ[0]),
                    heat_verdict=HeatVerdict.GUARANTEED_EQUAL.value,
                )
            )
    return PerQ(q, spaces, len(classes), pairs, len(findings)), findings


def sweep_stream(
    mode: str, qmin: int, qmax: int, padding: int = 0
) -> Iterator[tuple[PerQ, list[PairReport]]]:
    """Per-order results in ascending order, yielded one order at a time."""
    _check_range(qmin, qmax, 2, padding)
    if mode == "rigidity":
        worker = _rigidity_slice
    elif mode == "heat-degenerate":
        worker = _heat_slice
    else:
        raise PreconditionViolated(f"unknown sweep mode {mode!r}")
    for q in range(qmin, qmax + 1):
        yield worker(q, padding)


def summarize_sweep(
    mode: str,
    qmin: int,
    qmax: int,
    padding: int,
    results: Iterable[tuple[PerQ, list[PairReport]]],
) -> SweepSummary:
    """Fold per-order results (as from :func:`sweep_stream`) into totals.

    Findings at orders below SMALL_Q_LIMIT are kept apart.
    """
    per_q = []
    findings = []
    small = []
    for slice_summary, reports in results:
        per_q.append(slice_summary)
        target = small if slice_summary.q < SMALL_Q_LIMIT else findings
        target.extend(reports)
    return SweepSummary(
        mode=mode,
        qmin=qmin,
        qmax=qmax,
        padding=padding,
        dimension=3 + padding,
        spaces=sum(p.spaces for p in per_q),
        classes=sum(p.classes for p in per_q),
        pairs_checked=sum(p.pairs for p in per_q),
        findings=tuple(findings),
        small_q_findings=tuple(small),
        per_q=tuple(per_q),
    )


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
