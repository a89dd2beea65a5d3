"""Structured records for the CLI's machine formats.

Every record is a JSON-friendly dict built from a library object.
Exact rationals travel as "num/den" strings, never floats; a
15-significant-digit decimal rendering is attached alongside where
humans want one.  Records are written, never read back: a reader gets
the exact values with ``Fraction(s)`` and ``LensSpace(**rec)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Optional

from ._version import __version__
from .core import IsometryWitness, LensSpace
from .heat import HeatExpansion, HeatTerm
from .search import SMALL_Q_LIMIT, PairReport, PerQ, SweepSummary
from .spectrum import IsospectralDecision, SpectrumRow, SpectrumTable


def fraction_str(x: Fraction) -> str:
    return str(Fraction(x))


def decimal_str(x: float) -> str:
    return f"{x:.15g}"


def lens_record(space: LensSpace) -> dict:
    return {"q": space.q, "rotations": list(space.rotations), "padding": space.padding}


def witness_record(w: Optional[IsometryWitness]) -> Optional[dict]:
    if w is None:
        return None
    return {"unit": w.unit, "signs": list(w.signs), "permutation": list(w.permutation)}


def decision_record(d: IsospectralDecision) -> dict:
    return {
        "isospectral": d.isospectral,
        "first_differing_k": d.first_differing_k,
        "checked_upto": d.checked_upto,
        "reason": d.reason,
    }


def spectrum_row_record(row: SpectrumRow) -> dict:
    return {"k": row.k, "eigenvalue": row.eigenvalue, "multiplicity": row.multiplicity}


def spectrum_table_record(table: SpectrumTable) -> dict:
    return {
        "space": lens_record(table.space),
        "rows": [spectrum_row_record(r) for r in table.rows],
    }


def heat_term_record(term: HeatTerm) -> dict:
    c = term.coefficient
    return {
        "exponent": fraction_str(term.exponent),
        "inv_pi": fraction_str(c.inv_pi),
        "sqrt_pi": fraction_str(c.sqrt_pi),
        "exact": term.exact,
        "decimal": decimal_str(float(c)),
    }


def heat_expansion_record(exp: HeatExpansion) -> dict:
    return {
        "space": lens_record(exp.space),
        "alpha": exp.alpha,
        "beta": exp.beta,
        "truncation_order": exp.truncation_order,
        "terms": [heat_term_record(t) for t in exp.terms],
    }


def pair_record(p: PairReport) -> dict:
    return {
        "record": "pair",
        "q": p.first.q,
        "first": lens_record(p.first),
        "second": lens_record(p.second),
        "isometric": p.isometric,
        "witness": witness_record(p.witness),
        "isospectral": p.isospectral,
        "first_differing_k": p.first_differing_k,
        "heat_verdict": p.heat_verdict,
    }


def per_q_record(p: PerQ) -> dict:
    return {
        "record": "per_q",
        "q": p.q,
        "spaces": p.spaces,
        "classes": p.classes,
        "pairs": p.pairs,
        "findings": p.findings,
    }


def summary_record(s: SweepSummary) -> dict:
    # From the per-order rows, so a fold that drops the reports gives the same record.
    small = sum(p.findings for p in s.per_q if p.q < SMALL_Q_LIMIT)
    return {
        "record": "summary",
        "mode": s.mode,
        "qmin": s.qmin,
        "qmax": s.qmax,
        "padding": s.padding,
        "dimension": s.dimension,
        "spaces": s.spaces,
        "classes": s.classes,
        "pairs_checked": s.pairs_checked,
        "findings": sum(p.findings for p in s.per_q) - small,
        "small_q_findings": small,
        "version": __version__,
    }


def envelope(command: str, inputs: dict, result: Any) -> dict:
    return {
        "command": command,
        "version": __version__,
        "inputs": inputs,
        "result": result,
    }
