"""Command-line surface.

Subcommands:

  spectrum     eigenvalue/multiplicity table of one quotient
  isometric    isometry verdict for a pair (witness on YES)
  isospectral  spectral-equality verdict for a pair (first differing k on NO)
  heat         exact heat-trace coefficient table of one 3D quotient
  sweep        range sweeps: rigidity check or heat-degenerate pair search

Pair commands separate the two rotation vectors with a literal ``--``::

    orbilens isometric 195 3 5 -- 6 35

Exit codes: 0 = computed (any verdict), 2 = usage or malformed input,
3 = internal invariant violation.  Machine formats (``json-lines``,
``csv``) are byte-deterministic: wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from typing import Optional

from . import records
from ._version import __version__
from .core import LensSpace, is_isometric, reduce as reduce_space, sphere
from .errors import InternalInvariant, OrbilensError, PreconditionViolated
from .heat import heat_expansion_3d
from .search import summarize_sweep, sweep_stream
from .spectrum import is_isospectral, spectrum_table

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3

FORMATS = ("text", "json-lines", "csv")


def _jline(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=FORMATS, default="text", help="output format")
    p.add_argument("--out", default=None, help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbilens",
        description="Exact spectra, isospectrality and heat-trace coefficients "
        "of orbifold lens spaces.",
    )
    parser.add_argument("--version", action="version", version=f"orbilens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalue/multiplicity table")
    p.add_argument("q", type=int, help="group order")
    p.add_argument("rotations", type=int, nargs="*", help="rotation residues")
    p.add_argument("--padding", type=int, default=0, help="number of fixed coordinates")
    p.add_argument("--kmax", type=int, default=10, help="largest harmonic degree")
    _add_common(p)

    for name, txt in (
        ("isometric", "isometry verdict for a pair"),
        ("isospectral", "spectral equality verdict for a pair"),
    ):
        p = sub.add_parser(name, help=f"{txt}; second vector after a literal --")
        p.add_argument("q", type=int, help="group order (shared by the pair)")
        p.add_argument("rotations", type=int, nargs="+", help="first rotation vector")
        p.add_argument("--padding", type=int, default=0)
        _add_common(p)

    p = sub.add_parser("heat", help="exact heat-trace coefficients (3D)")
    p.add_argument("q", type=int)
    p.add_argument("rotations", type=int, nargs="+")
    p.add_argument("--padding", type=int, default=0)
    p.add_argument("--order", type=int, default=3, help="number of expansion terms (1..3)")
    _add_common(p)

    p = sub.add_parser("sweep", help="range sweep over isometry classes")
    p.add_argument("qmin", type=int)
    p.add_argument("qmax", type=int)
    p.add_argument(
        "--mode",
        choices=("rigidity", "heat-degenerate"),
        default="rigidity",
        help="assert no isospectral non-isometric pair / find heat-degenerate pairs",
    )
    p.add_argument("--padding", type=int, default=0)
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; sweeps run serially and the output "
        "does not depend on it",
    )
    _add_common(p)
    return parser


def _build_space(q: int, rotations: list[int], padding: int) -> LensSpace:
    if q == 1 and not rotations:
        return sphere(2, padding)
    if not rotations:
        raise PreconditionViolated("rotations: at least one residue is required for q > 1")
    return reduce_space(q, rotations, padding)


def _pair_tail(tail: Optional[list[str]]) -> list[int]:
    if not tail:
        raise PreconditionViolated(
            "second rotation vector missing: separate it with a literal --"
        )
    try:
        return [int(t) for t in tail]
    except ValueError as exc:
        raise PreconditionViolated(f"second rotation vector: {exc}") from None


def _cmd_spectrum(args, tail, out) -> int:
    space = _build_space(args.q, args.rotations, args.padding)
    table = spectrum_table(space, args.kmax)
    if args.format == "text":
        print(f"# spectrum of {space}  (ambient dimension {space.ambient_dim})", file=out)
        print(f"{'k':>6} {'eigenvalue':>14} {'multiplicity':>14}", file=out)
        for row in table.rows:
            print(f"{row.k:>6} {row.eigenvalue:>14} {row.multiplicity:>14}", file=out)
    elif args.format == "json-lines":
        env = records.envelope(
            "spectrum",
            {"space": records.lens_record(space), "kmax": args.kmax},
            records.spectrum_table_record(table),
        )
        print(_jline(env), file=out)
    else:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["k", "eigenvalue", "multiplicity"])
        for row in table.rows:
            w.writerow([row.k, row.eigenvalue, row.multiplicity])
    return EXIT_OK


def _cmd_pair(args, tail, out) -> int:
    first = _build_space(args.q, args.rotations, args.padding)
    second = _build_space(args.q, _pair_tail(tail), args.padding)
    if args.command == "isometric":
        witness = is_isometric(first, second)
        verdict = witness is not None
        detail = None
        if witness is not None:
            detail = (
                f"unit={witness.unit} signs={witness.signs} permutation={witness.permutation}"
            )
        payload = {"verdict": verdict, "witness": records.witness_record(witness)}
    else:
        decision = is_isospectral(first, second)
        verdict = decision.isospectral
        detail = decision.reason
        payload = {"verdict": verdict, "decision": records.decision_record(decision)}
    if args.format == "text":
        print("YES" if verdict else "NO", file=out)
        if detail:
            print(detail, file=out)
    elif args.format == "json-lines":
        env = records.envelope(
            args.command,
            {
                "first": records.lens_record(first),
                "second": records.lens_record(second),
            },
            payload,
        )
        print(_jline(env), file=out)
    else:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["first", "second", "verdict", "detail"])
        w.writerow([str(first), str(second), "YES" if verdict else "NO", detail or ""])
    return EXIT_OK


def _exponent_str(e) -> str:
    return f"t^({e})"


def _cmd_heat(args, tail, out) -> int:
    space = _build_space(args.q, args.rotations, args.padding)
    expansion = heat_expansion_3d(space, order=args.order)
    if args.format == "text":
        print(
            f"# heat-trace expansion of {space}  "
            f"(isotropy orders alpha={expansion.alpha}, beta={expansion.beta})",
            file=out,
        )
        for term in expansion.terms:
            c = term.coefficient
            print(
                f"{_exponent_str(term.exponent):>10}  {c.render():<40} "
                f"{records.decimal_str(float(c))}",
                file=out,
            )
    elif args.format == "json-lines":
        env = records.envelope(
            "heat",
            {"space": records.lens_record(space), "order": args.order},
            records.heat_expansion_record(expansion),
        )
        print(_jline(env), file=out)
    else:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["exponent", "inv_pi", "sqrt_pi", "decimal"])
        for term in expansion.terms:
            c = term.coefficient
            w.writerow(
                [
                    str(term.exponent),
                    records.fraction_str(c.inv_pi),
                    records.fraction_str(c.sqrt_pi),
                    records.decimal_str(float(c)),
                ]
            )
    return EXIT_OK


def _cmd_sweep(args, tail, out) -> int:
    if args.threads < 1:
        raise PreconditionViolated(f"threads must be >= 1, got {args.threads}")
    started = time.perf_counter()
    csv_writer = None
    if args.format == "csv":
        csv_writer = csv.writer(out, lineterminator="\n")
        if args.mode == "rigidity":
            csv_writer.writerow(["q", "spaces", "classes", "pairs", "findings"])
        else:
            csv_writer.writerow(
                ["q", "first", "second", "first_differing_k", "heat_verdict"]
            )
    results = []
    for per_q, findings in sweep_stream(args.mode, args.qmin, args.qmax, args.padding):
        for pair in findings:
            if args.format == "text":
                tag = pair.heat_verdict or ("ISOSPECTRAL" if pair.isospectral else "")
                print(
                    f"pair q={per_q.q} {pair.first} | {pair.second} "
                    f"first_differing_k={pair.first_differing_k} {tag}".rstrip(),
                    file=out,
                )
            elif args.format == "json-lines":
                print(_jline(records.pair_record(pair)), file=out)
            else:
                if args.mode != "rigidity":
                    csv_writer.writerow(
                        [
                            per_q.q,
                            str(pair.first),
                            str(pair.second),
                            pair.first_differing_k,
                            pair.heat_verdict,
                        ]
                    )
        if args.format == "text":
            print(
                f"q={per_q.q} spaces={per_q.spaces} classes={per_q.classes} "
                f"pairs={per_q.pairs} findings={per_q.findings}",
                file=out,
            )
        elif args.format == "json-lines":
            print(_jline(records.per_q_record(per_q)), file=out)
        elif args.mode == "rigidity":
            csv_writer.writerow(
                [per_q.q, per_q.spaces, per_q.classes, per_q.pairs, per_q.findings]
            )
        out.flush()
        results.append((per_q, findings))
    summary = records.summary_record(
        summarize_sweep(args.mode, args.qmin, args.qmax, args.padding, results)
    )
    if args.format == "text":
        print(
            f"summary mode={summary['mode']} q={summary['qmin']}..{summary['qmax']} "
            f"spaces={summary['spaces']} classes={summary['classes']} "
            f"pairs={summary['pairs_checked']} findings={summary['findings']} "
            f"small_q_findings={summary['small_q_findings']}",
            file=out,
        )
    elif args.format == "json-lines":
        print(_jline(summary), file=out)
    print(f"wall-clock: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return EXIT_OK


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "isometric": _cmd_pair,
    "isospectral": _cmd_pair,
    "heat": _cmd_heat,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    tail: Optional[list[str]] = None
    if "--" in argv:
        cut = argv.index("--")
        tail = argv[cut + 1 :]
        argv = argv[:cut]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return EXIT_OK if code in (0, None) else int(code)
    out = sys.stdout
    if getattr(args, "out", None):
        # Appending checks that the file can be written without touching
        # its contents; the output is buffered and replaces them only
        # when the command succeeds.
        try:
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            print(f"error: cannot open --out file: {exc}", file=sys.stderr)
            return EXIT_USAGE
        out = io.StringIO()
    try:
        code = _HANDLERS[args.command](args, tail, out)
        if out is not sys.stdout:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out.getvalue())
        return code
    except InternalInvariant as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OrbilensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
