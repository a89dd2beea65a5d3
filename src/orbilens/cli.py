"""Command-line surface.

Subcommands:

  spectrum     eigenvalue/multiplicity table of one quotient
  isometric    isometry verdict for a pair (witness on YES)
  isospectral  spectral-equality verdict for a pair (first differing k on NO)
  heat         exact heat-trace coefficient table of one 3D quotient
  sweep        range sweeps: rigidity check or heat-degenerate pair search

Pair commands separate the two rotation vectors with a literal ``--``;
any other command refuses a ``--`` tail as a usage error::

    orbilens isometric 195 3 5 -- 6 35

Every format is read from the records of :mod:`orbilens.records`:
``json-lines`` prints them, ``csv`` projects their fields onto a column
tuple, and ``text`` lays them out for a reader.  ``--out`` spools the
output to an anonymous temporary file and copies it into the target only
when the command succeeds, so an error leaves the target as it was and a
sweep holds one order in memory, as it does on stdout.

Exit codes: 0 = computed (any verdict), 2 = usage or malformed input,
3 = internal invariant violation.  Machine formats (``json-lines``,
``csv``) are byte-deterministic: wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import shutil
import sys
import tempfile
import time
from itertools import starmap
from operator import itemgetter
from typing import Iterator, Optional

from . import records
from ._version import __version__
from .core import LensSpace, is_isometric, reduce as reduce_space, sphere
from .errors import InternalInvariant, OrbilensError, PreconditionViolated
from .heat import heat_expansion_3d
from .search import SWEEP_MODES, Findings, PairReport, PerQ, summarize_sweep, sweep_stream
from .spectrum import is_isospectral, spectrum_table

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3

FORMATS = ("text", "json-lines", "csv")
PAIR_COMMANDS = ("isometric", "isospectral")

# csv columns, each a field of the record the row is read from.
SPECTRUM_COLUMNS = ("k", "eigenvalue", "multiplicity")
HEAT_COLUMNS = ("exponent", "inv_pi", "sqrt_pi", "decimal")
PER_Q_COLUMNS = ("q", "spaces", "classes", "pairs", "findings")
PAIR_COLUMNS = ("q", "first", "second", "first_differing_k", "heat_verdict")


# One encoder for every json-lines record; json.dumps would build one per call.
_jline = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# The pair record's fields that vary from pair to pair, in the order
# _pair_rows fills them in.
PAIR_FIELDS = ("q", "first", "second", "isospectral", "first_differing_k", "heat_verdict")


@functools.lru_cache(maxsize=1)
def _pair_template() -> str:
    """A pair record's json line, with format field i for ``PAIR_FIELDS[i]``.

    Read off the encoding of ``records.pair_record`` itself: each
    varying field holds a marker string, whose encoding is then replaced
    by the field, so every other byte is the record's own.
    """
    rec = records.pair_record(PairReport(sphere(), sphere(), None))
    rec.update((field, f"<{field}>") for field in PAIR_FIELDS)
    line = _jline(rec).replace("{", "{{").replace("}", "}}")
    for i, field in enumerate(PAIR_FIELDS):
        line = line.replace(_jline(f"<{field}>"), f"{{{i}}}")
    return line


def _pair_rows(q: int, found: Findings, fmt: str) -> Iterator:
    """One order's pair rows in ``fmt``, read off its finding columns.

    Each class's fragment is built once: its json space record, or
    ``str(space)`` for text and csv.  A json line is
    ``_jline(records.pair_record(p))`` of the finding's report ``p``, and
    a csv row that record's ``PAIR_COLUMNS`` with the classes named by
    ``str``.  A rigidity finding is isospectral (k = -1), and a heat
    finding carries its verdict.
    """
    pairs = zip(found.i.tolist(), found.j.tolist(), found.k.tolist())
    if fmt == "json-lines":
        names = [_jline(records.lens_record(space)) for space in found.classes]
        fill, verdict = _pair_template().format, _jline(found.heat_verdict)
        return (
            fill(q, names[i], names[j], *(("true", "null") if k < 0 else ("false", k)), verdict)
            for i, j, k in pairs
        )
    names = list(map(str, found.classes))
    if fmt == "csv":
        return ((q, names[i], names[j], None if k < 0 else k, found.heat_verdict)
                for i, j, k in pairs)
    tag = found.heat_verdict or "ISOSPECTRAL"
    return (f"pair q={q} {names[i]} | {names[j]} first_differing_k={None if k < 0 else k} {tag}"
            for i, j, k in pairs)


def _csv(out, columns, recs=()):
    """Write the csv header and ``recs`` projected onto ``columns``.

    Returns the csv writer, for rows that stream.
    """
    w = csv.writer(out, lineterminator="\n")
    w.writerow(columns)
    w.writerows(map(itemgetter(*columns), recs))
    return w


def _command(sub, name: str, text: str, run, rotations: Optional[str] = "+", **ints):
    """Add a subcommand with the arguments the commands share.

    Those are ``q`` and ``rotations`` (with ``nargs=rotations``; left out
    when it is None), ``--padding``, the integer options ``ints``
    (``flag=(default, help)``), ``--format`` and ``--out``.  ``main``
    calls ``run(args, out)``.
    """
    p = sub.add_parser(name, help=text)
    p.set_defaults(run=run)
    if rotations:
        p.add_argument("q", type=int, help="group order")
        p.add_argument("rotations", type=int, nargs=rotations, help="rotation residues")
    p.add_argument("--padding", type=int, default=0, help="number of fixed coordinates")
    for flag, (default, flag_help) in ints.items():
        p.add_argument(f"--{flag}", type=int, default=default, help=flag_help)
    p.add_argument("--format", choices=FORMATS, default="text", help="output format")
    p.add_argument("--out", help="write output to this file instead of stdout")
    return p


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of every subcommand; :func:`main` keeps one per process."""
    parser = argparse.ArgumentParser(
        prog="orbilens",
        description="Exact spectra, isospectrality and heat-trace coefficients "
        "of orbifold lens spaces.",
    )
    parser.add_argument("--version", action="version", version=f"orbilens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "spectrum", "eigenvalue/multiplicity table", _cmd_spectrum, rotations="*",
             kmax=(10, "largest harmonic degree"))
    for name, what in zip(PAIR_COMMANDS, ("isometry", "spectral equality")):
        _command(sub, name, f"{what} verdict for a pair; second vector after a literal --",
                 _cmd_pair)
    _command(sub, "heat", "exact heat-trace coefficients (3D)", _cmd_heat,
             order=(3, "number of expansion terms (1..3)"))
    p = _command(
        sub, "sweep", "range sweep over isometry classes", _cmd_sweep, rotations=None,
        threads=(1, "accepted for compatibility; sweeps run serially and the output "
                 "does not depend on it"),
    )
    p.add_argument("qmin", type=int, help="smallest group order")
    p.add_argument("qmax", type=int, help="largest group order")
    p.add_argument(
        "--mode",
        choices=tuple(SWEEP_MODES),
        default="rigidity",
        help="assert no isospectral non-isometric pair / find heat-degenerate pairs",
    )
    return parser


@functools.lru_cache(maxsize=1)
def _parser(modes: tuple[str, ...]) -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built on first use in a process.

    Keyed on the sweep modes it offers as ``--mode`` choices, so a mode
    added to :data:`SWEEP_MODES` later gets a parser that names it.
    """
    return build_parser()


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


def _cmd_spectrum(args, out) -> None:
    space = _build_space(args.q, args.rotations, args.padding)
    result = records.spectrum_table_record(spectrum_table(space, args.kmax))
    if args.format == "json-lines":
        inputs = {"space": records.lens_record(space), "kmax": args.kmax}
        print(_jline(records.envelope("spectrum", inputs, result)), file=out)
    elif args.format == "csv":
        _csv(out, SPECTRUM_COLUMNS, result["rows"])
    else:
        print(f"# spectrum of {space}  (ambient dimension {space.ambient_dim})", file=out)
        # The header is the record that maps each column to its own name.
        for row in (dict(zip(SPECTRUM_COLUMNS, SPECTRUM_COLUMNS)), *result["rows"]):
            print("{k:>6} {eigenvalue:>14} {multiplicity:>14}".format_map(row), file=out)


def _cmd_pair(args, out) -> None:
    first = _build_space(args.q, args.rotations, args.padding)
    second = _build_space(args.q, _pair_tail(args.tail), args.padding)
    if args.command == "isometric":
        witness = is_isometric(first, second)
        verdict = witness is not None
        result = {"verdict": verdict, "witness": records.witness_record(witness)}
        detail = witness and (
            f"unit={witness.unit} signs={witness.signs} permutation={witness.permutation}"
        )
    else:
        decision = is_isospectral(first, second)
        verdict = decision.isospectral
        result = {"verdict": verdict, "decision": records.decision_record(decision)}
        detail = decision.reason
    word = "YES" if verdict else "NO"
    if args.format == "json-lines":
        inputs = {"first": records.lens_record(first), "second": records.lens_record(second)}
        print(_jline(records.envelope(args.command, inputs, result)), file=out)
    elif args.format == "csv":
        row = {"first": str(first), "second": str(second), "verdict": word, "detail": detail or ""}
        _csv(out, tuple(row), [row])
    else:
        print(word, file=out)
        if detail:
            print(detail, file=out)


def _cmd_heat(args, out) -> None:
    space = _build_space(args.q, args.rotations, args.padding)
    expansion = heat_expansion_3d(space, order=args.order)
    result = records.heat_expansion_record(expansion)
    if args.format == "json-lines":
        inputs = {"space": records.lens_record(space), "order": args.order}
        print(_jline(records.envelope("heat", inputs, result)), file=out)
    elif args.format == "csv":
        _csv(out, HEAT_COLUMNS, result["terms"])
    else:
        print(
            f"# heat-trace expansion of {space}  "
            f"(isotropy orders alpha={expansion.alpha}, beta={expansion.beta})",
            file=out,
        )
        for term, rec in zip(expansion.terms, result["terms"]):
            power = f"t^({rec['exponent']})"
            print(f"{power:>10}  {term.coefficient.render():<40} {rec['decimal']}", file=out)


def _cmd_sweep(args, out) -> None:
    if args.threads < 1:
        raise PreconditionViolated(f"threads must be >= 1, got {args.threads}")
    started = time.perf_counter()
    # A refused range, padding or mode raises here, before any output.
    stream = sweep_stream(args.mode, args.qmin, args.qmax, args.padding)
    # A mode that looks for isospectral pairs (none expected) writes one
    # csv row per order; any other writes one per pair.
    _, per_order = SWEEP_MODES[args.mode]
    if args.format == "csv":
        rows = _csv(out, PER_Q_COLUMNS if per_order else PAIR_COLUMNS)

    def write(per_q: PerQ, found: Findings) -> tuple[PerQ, tuple]:
        if args.format != "csv":
            out.writelines(f"{line}\n" for line in _pair_rows(per_q.q, found, args.format))
        elif not per_order:
            rows.writerows(_pair_rows(per_q.q, found, args.format))
        rec = records.per_q_record(per_q)
        if args.format == "text":
            print(" ".join(f"{c}={rec[c]}" for c in PER_Q_COLUMNS), file=out)
        elif args.format == "json-lines":
            print(_jline(rec), file=out)
        elif per_order:
            rows.writerow([rec[c] for c in PER_Q_COLUMNS])
        out.flush()
        return per_q, ()

    # The summary reads every total off the per-order rows.  starmap
    # drops each order's findings, once written, before it reads the
    # next order.
    results = list(starmap(write, stream))
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


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    try:
        args = _parser(tuple(SWEEP_MODES)).parse_args(argv[:cut])
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else int(exc.code)
    args.tail = argv[cut + 1 :] if cut < len(argv) else None
    try:
        if args.tail is not None and args.command not in PAIR_COMMANDS:
            raise PreconditionViolated(f"{args.command} takes no arguments after --")
        if args.out is None:
            args.run(args, sys.stdout)
            return EXIT_OK
        # Appending checks that the file can be written without touching
        # its contents.  The output is spooled to an anonymous file and
        # copied into the target in place, only when the command succeeds;
        # renaming a file over the target would replace a symlink or a
        # device with a regular file.  The copy moves the spooled bytes
        # as they are, without decoding them into text.
        try:
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            raise PreconditionViolated(f"cannot open --out file: {exc}") from None
        with tempfile.TemporaryFile("w+", encoding="utf-8") as spool:
            args.run(args, spool)
            spool.seek(0)
            with open(args.out, "wb") as fh:
                shutil.copyfileobj(spool.buffer, fh)
        return EXIT_OK
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
