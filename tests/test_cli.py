import gc
import io
import json
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import asdict
from fractions import Fraction

import pytest

from orbilens import cli, records, search
from orbilens.cli import FORMATS, main
from orbilens.core import IsometryWitness, LensSpace, is_isometric, reduce
from orbilens.heat import heat_expansion_3d
from orbilens.search import (
    PairReport,
    PerQ,
    find_heat_degenerate,
    summarize_sweep,
    verify_rigidity,
)
from orbilens.spectrum import is_isospectral, spectrum_table

import oracles
from test_search import share_one_fingerprint


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_projective_table(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "2", "1", "1", "--kmax", "4")
        assert code == 0
        mults = [int(line.split()[-1]) for line in out.splitlines()[2:]]
        assert mults == [1, 0, 9, 0, 25]

    def test_sphere_shortcut(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "1", "--kmax", "2")
        assert code == 0
        mults = [int(line.split()[-1]) for line in out.splitlines()[2:]]
        assert mults == [1, 4, 9]

    def test_invalid_order_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "0", "1", "1")
        assert code == 2
        assert "q" in err

    def test_missing_rotations_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "5")
        assert code == 2
        assert "rotations" in err

    def test_json_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "9", "1", "3", "--kmax", "6", "--format", "json-lines"
        )
        assert code == 0
        env = json.loads(out)
        assert env["command"] == "spectrum" and env["version"]
        table = spectrum_table(reduce(9, [1, 3]), 6)
        assert LensSpace(**env["result"]["space"]) == table.space
        columns = enumerate(zip(table.eigenvalues, table.multiplicities))
        rows = [{"k": k, "eigenvalue": e, "multiplicity": m} for k, (e, m) in columns]
        assert env["result"]["rows"] == rows

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "2", "1", "1", "--format", "csv", "--kmax", "2")
        assert code == 0
        assert out.splitlines() == ["k,eigenvalue,multiplicity", "0,0,1", "1,3,0", "2,8,9"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys, "spectrum", "2", "1", "1", "--format", "csv", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("k,eigenvalue,multiplicity")

    def test_unopenable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "rows.csv"
        code, out, err = run_cli(capsys, "spectrum", "7", "1", "2", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_negative_kmax_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "7", "1", "2", "--kmax", "-3")
        assert code == 2 and out == ""
        assert "kmax" in err

    def test_negative_padding_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "7", "1", "2", "--padding", "-1")
        assert code == 2 and out == ""
        assert err == "error: padding must be >= 0, got -1\n"

    def test_kmax_beyond_counting_range_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "7", "1", "2", "--kmax", "5000000")
        assert code == 2 and out == ""
        assert err.startswith("error: degree 5000000 ")

    def test_usage_error_leaves_out_file_untouched(self, capsys, tmp_path):
        target = tmp_path / "keep.txt"
        target.write_bytes(b"keep\n")
        for argv in (
            ["spectrum", "0", "1", "1"],
            ["spectrum", "7", "1", "2", "--kmax", "-3"],
            ["sweep", "10", "5", "--format", "csv"],
        ):
            code, out, err = run_cli(capsys, *argv, "--out", str(target))
            assert code == 2 and out == "" and err.startswith("error: ")
            assert target.read_bytes() == b"keep\n"

    def test_one_block_table_beyond_cell_limit_exits_2(self, capsys, monkeypatch):
        import numpy as np

        def refuse(*args, **kwargs):
            raise AssertionError("the counting table was allocated")

        monkeypatch.setattr(np, "zeros", refuse)
        q = str(2**64 + 1)
        for argv in (["400", "1", "100000000"], [q, "5", "3"], [q, "5", "7", "9", "3"]):
            *space, kmax = argv
            code, out, err = run_cli(capsys, "spectrum", *space, "--kmax", kmax)
            assert code == 2 and out == ""
            assert err.startswith(f"error: degree {kmax} ") and "cell limit" in err


    def test_huge_padding_exits_2(self, capsys):
        for rotations in (["1", "2"], ["1"]):
            code, out, err = run_cli(
                capsys, "spectrum", "7", *rotations, "--padding", "1000000000", "--kmax", "2"
            )
            assert code == 2 and out == ""
            assert err.startswith("error: degree 2 ") and "cell limit" in err

    def test_order_beyond_int64_exits_0(self, capsys):
        q = 2**64 + 1
        code, out, err = run_cli(
            capsys, "spectrum", str(q), "1", "2", "--kmax", "3", "--format", "csv"
        )
        assert code == 0 and err == ""
        mults = [int(line.split(",")[-1]) for line in out.splitlines()[1:]]
        assert mults == oracles.brute_multiplicities(LensSpace(q, (1, 2)), 3)

    def test_table_beyond_row_limit_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "spectrum", "7", "1", "2", "--kmax", "400000", "--format", "csv"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: degree 400000 ") and "row limit" in err


class TestPairCommands:
    def test_isometric_yes_with_witness(self, capsys):
        code, out, _ = run_cli(capsys, "isometric", "7", "1", "2", "--", "2", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "YES"
        assert "unit=2" in lines[1]

    def test_isometric_no(self, capsys):
        code, out, _ = run_cli(capsys, "isometric", "195", "3", "5", "--", "6", "35")
        assert code == 0
        assert out.splitlines()[0] == "NO"

    def test_isospectral_no_reports_k(self, capsys):
        code, out, _ = run_cli(capsys, "isospectral", "195", "3", "5", "--", "6", "35")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "NO"
        assert "k=8" in lines[1]

    def test_isometric_beyond_unit_limit_exits_2(self, capsys, monkeypatch):
        import math

        from orbilens.core import MAX_UNIT_ORDER

        real_gcd, calls = math.gcd, []

        def budgeted_gcd(*args):
            calls.append(1)
            if len(calls) > 100:
                raise AssertionError("the unit orbit was built")
            return real_gcd(*args)

        monkeypatch.setattr(math, "gcd", budgeted_gcd)
        q = str(10**6 * MAX_UNIT_ORDER + 1)
        code, out, err = run_cli(capsys, "isometric", q, "1", "2", "--", "1", "3")
        assert code == 2 and out == ""
        assert err.startswith(f"error: order {q} ") and "unit-orbit limit" in err

    def test_missing_separator_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "isospectral", "7", "1", "2")
        assert code == 2
        assert "--" in err

    def test_bad_second_vector_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "isometric", "7", "1", "2", "--", "x", "3")
        assert code == 2

    def test_json_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "isometric", "7", "1", "2", "--format", "json-lines", "--", "2", "3"
        )
        env = json.loads(out)
        assert env["result"]["verdict"] is True
        witness = is_isometric(reduce(7, [1, 2]), reduce(7, [2, 3]))
        assert witness == IsometryWitness(2, (1, -1), (0, 1))
        # JSON turns the witness's tuples into lists.
        assert env["result"]["witness"] == json.loads(json.dumps(asdict(witness)))

    def test_isospectral_json_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "isospectral", "195", "3", "5", "--format", "json-lines", "--", "6", "35"
        )
        env = json.loads(out)
        decision = is_isospectral(reduce(195, [3, 5]), reduce(195, [6, 35]))
        assert env["result"]["verdict"] is decision.isospectral is False
        assert env["result"]["decision"] == asdict(decision)


class TestHeatCommand:
    def test_exact_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "heat", "195", "3", "5")
        assert code == 0
        assert "1/6240 · 1/π" in out

    def test_pair_produces_identical_tables(self, capsys):
        _, out1, _ = run_cli(capsys, "heat", "195", "3", "5")
        _, out2, _ = run_cli(capsys, "heat", "195", "6", "35")
        assert out1.splitlines()[1:] == out2.splitlines()[1:]

    def test_manifold_has_no_circle_parts(self, capsys):
        code, out, _ = run_cli(capsys, "heat", "7", "1", "2", "--format", "json-lines")
        env = json.loads(out)
        assert all(t["sqrt_pi"] == "0" for t in env["result"]["terms"])

    def test_json_terms_roundtrip_exactly(self, capsys):
        code, out, _ = run_cli(capsys, "heat", "195", "3", "5", "--format", "json-lines")
        env = json.loads(out)
        terms = env["result"]["terms"]
        expansion = heat_expansion_3d(reduce(195, [3, 5]))
        assert len(terms) == len(expansion.terms)
        for rec, term in zip(terms, expansion.terms):
            c = term.coefficient
            assert Fraction(rec["exponent"]) == term.exponent
            assert (Fraction(rec["inv_pi"]), Fraction(rec["sqrt_pi"])) == (c.inv_pi, c.sqrt_pi)
            assert rec["exact"] is True
            assert rec["decimal"] == f"{float(c):.15g}"
        assert Fraction(terms[1]["sqrt_pi"]) == Fraction(28, 45)

    def test_decimal_beyond_float_range_is_inf(self, capsys):
        # The t^(1/2) circle part is about -m^3 / 360 for isotropy order m.
        m = 10**110 + 1
        decimals = ["4.97359197162173e-113", "1.4770448757546e+109", "-inf"]
        for fmt in FORMATS:
            code, out, err = run_cli(capsys, "heat", str(2 * m), "2", str(m), "--format", fmt)
            assert code == 0 and err == ""
            if fmt == "json-lines":
                terms = json.loads(out)["result"]["terms"]
                assert [t["decimal"] for t in terms] == decimals
                assert Fraction(terms[2]["sqrt_pi"]) < -(10**300)
            else:
                sep = "," if fmt == "csv" else None
                assert [line.split(sep)[-1] for line in out.splitlines()[1:]] == decimals

    def test_padding_rejected(self, capsys):
        code, _, err = run_cli(capsys, "heat", "195", "3", "5", "--padding", "1")
        assert code == 2
        assert "padding" in err


class TestSweepCommand:
    def test_rigidity_text_summary(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "8", "20")
        assert code == 0
        assert "findings=0" in out.splitlines()[-1]
        assert "wall-clock" in err

    def test_inverted_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "10", "5")
        assert code == 2

    def test_refused_csv_sweep_prints_nothing(self, capsys):
        for argv in ("sweep 10 5", "sweep 8 5000", "sweep 8 9 --padding 2"):
            code, out, err = run_cli(capsys, *argv.split(), "--format", "csv")
            assert code == 2 and out == "" and err.startswith("error: "), argv

    def test_order_beyond_sweep_limit_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "100000", "100000")
        assert code == 2 and out == ""
        assert err.startswith("error: order 100000 exceeds the sweep limit")

    def test_heat_mode_finds_q195_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "195", "195", "--mode", "heat-degenerate", "--format", "json-lines"
        )
        assert code == 0
        recs = [json.loads(line) for line in out.splitlines()]
        pairs = [r for r in recs if r["record"] == "pair"]
        summary = [r for r in recs if r["record"] == "summary"]
        wanted = {tuple(p["first"]["rotations"]) + tuple(p["second"]["rotations"]) for p in pairs}
        assert (3, 5, 3, 50) in wanted
        assert summary[0]["findings"] == len(pairs)

    def test_json_records_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "10", "16", "--mode", "heat-degenerate", "--format", "json-lines"
        )
        recs = [json.loads(line) for line in out.splitlines()]
        summary = find_heat_degenerate(10, 16)
        assert summary.findings
        assert [r for r in recs if r["record"] == "pair"] == [
            records.pair_record(p) for p in summary.findings
        ]
        assert [r for r in recs if r["record"] == "per_q"] == [
            records.per_q_record(p) for p in summary.per_q
        ]
        tail = [r for r in recs if r["record"] == "summary"][0]
        assert tail == records.summary_record(summary)

    def test_rigidity_json_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "8", "14", "--format", "json-lines")
        recs = [json.loads(line) for line in out.splitlines()]
        summary = verify_rigidity(8, 14)
        assert [r["classes"] for r in recs if r["record"] == "per_q"] == [
            p.classes for p in summary.per_q
        ]

    @staticmethod
    def leaked_findings(capsys, monkeypatch):
        """Per order, how many earlier orders' Findings are reachable when the CLI asks for it."""
        alive, leaked, found = [], [], []

        def tracked(*args):
            for per_q, findings in search.sweep_stream(*args):
                # The CLI has asked for this order; check whether the last
                # order's findings are still reachable.
                gc.collect()
                leaked.append(sum(ref() is not None for ref in alive))
                alive[:] = [weakref.ref(findings)]
                found.append(len(findings))
                yield per_q, findings

        monkeypatch.setattr(cli, "sweep_stream", tracked)
        code, out, _ = run_cli(
            capsys, "sweep", "190", "200", "--mode", "heat-degenerate", "--format", "json-lines"
        )
        assert code == 0
        assert sum(found) == json.loads(out.splitlines()[-1])["findings"]
        assert sum(n > 0 for n in found) >= 2
        return leaked

    def test_each_orders_reports_dropped_before_the_next(self, capsys, monkeypatch):
        assert self.leaked_findings(capsys, monkeypatch) == [0] * 11

    def test_leak_check_fails_a_cli_that_keeps_every_orders_findings(self, capsys, monkeypatch):
        kept, rows = [], cli._pair_rows
        monkeypatch.setattr(cli, "_pair_rows", lambda *a: kept.append(a[1]) or rows(*a))
        assert self.leaked_findings(capsys, monkeypatch) == [0] + [1] * 10

    @pytest.mark.parametrize("mode", list(search.SWEEP_MODES))
    def test_sweep_builds_no_pair_report(self, capsys, monkeypatch, mode):
        if mode == "rigidity":
            # One shared fingerprint makes every pair a rigidity finding.
            share_one_fingerprint(monkeypatch)
        made, report = [], search.PairReport
        monkeypatch.setattr(search, "PairReport", lambda *a: made.append(a) or report(*a))
        outs = {}
        for fmt in FORMATS:
            argv = ["sweep", "8", "30", "--mode", mode, "--format", fmt]
            code, outs[fmt], _ = run_cli(capsys, *argv)
            assert code == 0
        assert json.loads(outs["json-lines"].splitlines()[-1])["findings"] > 0
        assert made == []
        # The count sees the reports a library caller asks for.
        summary = search._sweep(mode, 8, 30, 0)
        assert len(made) == len(summary.findings) > 0

    def test_csv_heat_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "10", "12", "--mode", "heat-degenerate", "--format", "csv"
        )
        lines = out.splitlines()
        assert lines[0] == "q,first,second,first_differing_k,heat_verdict"

    @pytest.mark.parametrize("mode", list(search.SWEEP_MODES))
    def test_csv_layout_follows_the_mode_table(self, capsys, mode):
        # A mode that looks for isospectral pairs writes per-order rows;
        # any other writes pair rows.
        _, isospectral = search.SWEEP_MODES[mode]
        code, out, _ = run_cli(capsys, "sweep", "10", "12", "--mode", mode, "--format", "csv")
        assert code == 0
        columns = cli.PER_Q_COLUMNS if isospectral else cli.PAIR_COLUMNS
        assert out.splitlines()[0] == ",".join(columns)

    def test_csv_layout_of_a_new_mode_read_off_the_table(self, capsys, monkeypatch):
        # Isospectral pairs sharing a heat key: a mode the CLI never names.
        key, _ = search.SWEEP_MODES["heat-degenerate"]
        monkeypatch.setitem(search.SWEEP_MODES, "heat-isospectral", (key, True))
        code, out, _ = run_cli(
            capsys, "sweep", "10", "12", "--mode", "heat-isospectral", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["q,spaces,classes,pairs,findings", *(
            f"{p.q},{p.spaces},{p.classes},{p.pairs},0" for p in verify_rigidity(10, 12).per_q
        )]

    def test_threads_below_one_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "8", "10", "--threads", "0")
        assert code == 2 and out == ""
        assert "threads" in err

    def test_stdout_identical_across_thread_counts(self, capsys):
        _, out1, _ = run_cli(
            capsys, "sweep", "8", "24", "--threads", "1", "--format", "json-lines"
        )
        _, out8, _ = run_cli(
            capsys, "sweep", "8", "24", "--threads", "8", "--format", "json-lines"
        )
        assert out1 == out8


class TestOutAndTail:
    def test_tail_after_non_pair_command_exits_2(self, capsys, tmp_path):
        target = tmp_path / "keep.txt"
        target.write_bytes(b"keep\n")
        for argv in (["spectrum", "7", "1", "2"], ["heat", "7", "1", "2"], ["sweep", "8", "9"]):
            for out_args in ([], ["--out", str(target)]):
                code, out, err = run_cli(capsys, *argv, *out_args, "--", "3")
                assert code == 2 and out == ""
                assert err.startswith("error: ") and "--" in err
        assert target.read_bytes() == b"keep\n"

    def test_out_bytes_equal_stdout(self, capsys, tmp_path):
        argv = ["sweep", "8", "24", "--mode", "heat-degenerate", "--format", "text"]
        target = tmp_path / "sweep.txt"
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--out", str(target))[:2] == (0, "")
        assert target.read_bytes() == out.encode()

    def test_out_symlink_stays_a_symlink(self, capsys, tmp_path):
        real = tmp_path / "real.txt"
        real.write_text("old\n")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        code, out, _ = run_cli(
            capsys, "isometric", "7", "1", "2", "--out", str(link), "--", "2", "3"
        )
        assert code == 0 and out == ""
        assert link.is_symlink() and real.read_text().startswith("YES\n")

    def test_out_holds_one_order_in_memory(self, tmp_path, monkeypatch):
        # A sweep to --out allocates about what it does to stdout, not
        # the whole output (0.93 MB here).
        argv = ["sweep", "190", "200", "--mode", "heat-degenerate", "--format", "json-lines"]
        monkeypatch.setattr(sys, "stderr", io.StringIO())

        def traced_peak(*extra):
            tracemalloc.start()
            try:
                assert main([*argv, *extra]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # First-call allocations stay out of the measured runs.
        main(["sweep", "190", "191", *argv[3:], "--out", str(tmp_path / "warm")])
        to_out = traced_peak("--out", str(tmp_path / "out.jsonl"))
        with open(tmp_path / "stdout.jsonl", "w", encoding="utf-8") as fh:
            monkeypatch.setattr(sys, "stdout", fh)
            to_stdout = traced_peak()
        data = (tmp_path / "out.jsonl").read_bytes()
        assert data == (tmp_path / "stdout.jsonl").read_bytes() and len(data) > 900_000
        assert to_out < 1.25 * to_stdout


class TestEntryPoints:
    def test_module_invocation(self):
        res = subprocess.run(
            [sys.executable, "-m", "orbilens.cli", "isometric", "7", "1", "2", "--", "2", "3"],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0
        assert res.stdout.startswith("YES")

    def test_version_flag(self, capsys):
        code, out, err = run_cli(capsys, "--version")
        assert code == 0
        assert "orbilens" in out + err


class TestOneProcess:
    # Valid commands of every kind, then what argparse answers itself
    # (a usage error, --help, --version) and a refused -- tail, then the
    # valid commands again: a parser kept between calls must answer each
    # exactly as a fresh process does.
    VALID = [
        ["spectrum", "12", "1", "5", "--padding", "1", "--kmax", "8"],
        ["isometric", "7", "1", "2", "--format", "json-lines", "--", "2", "3"],
        ["isospectral", "195", "3", "5", "--", "6", "35"],
        ["heat", "195", "3", "5", "--format", "csv"],
    ]
    OTHER = [
        ["spectrum", "7", "x"],
        ["sweep", "8", "9", "--mode", "bogus"],
        ["--help"],
        ["--version"],
        ["heat", "195", "3", "5", "--", "1"],
    ]

    def test_many_commands_match_fresh_processes(self, capsys, monkeypatch):
        # Help and usage text wrap at the terminal width; fix it for both.
        monkeypatch.setenv("COLUMNS", "80")
        fresh = {}
        children = {
            tuple(argv): subprocess.Popen([sys.executable, "-m", "orbilens.cli", *argv],
                                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                          text=True)
            for argv in self.VALID + self.OTHER
        }
        for argv, child in children.items():
            out, err = child.communicate(timeout=60)
            fresh[argv] = (child.returncode, out, err)
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(build()) or built[-1])
        cli._parser.cache_clear()
        for argv in self.VALID + self.OTHER + self.VALID:
            assert run_cli(capsys, *argv) == fresh[tuple(argv)], argv
        assert len(built) == 1


class TestColdPath:
    # numpy imports numpy.ma on first use of some calls (np.unique among
    # them); a benchmark worker sweeps once, so that import would count.
    COMMANDS = [
        ["sweep", "195", "195", "--mode", "heat-degenerate", "--padding", "1"],
        ["spectrum", "12", "1", "5", "--padding", "1", "--kmax", "8"],
        ["isometric", "7", "1", "2", "--", "2", "3"],
        ["isospectral", "195", "3", "5", "--", "6", "35"],
        ["heat", "195", "3", "5"],
    ]

    def test_sweep_and_queries_leave_numpy_ma_unimported(self):
        script = (
            "import io, sys\n"
            "from orbilens import cli\n"
            "sys.stdout, sys.stderr = io.StringIO(), io.StringIO()\n"
            f"codes = [cli.main(argv) for argv in {self.COMMANDS!r}]\n"
            "sys.stdout = sys.__stdout__\n"
            "print(codes, 'numpy.ma' in sys.modules)\n"
        )
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             check=True)
        assert res.stdout == f"{[0] * len(self.COMMANDS)} False\n"


class TestPairLines:
    # The pair lines come from a template read off records.pair_record's
    # encoding; each must be the line that encoding gives.
    @pytest.mark.parametrize("padding", [0, 1])
    def test_heat_findings_match_the_record_encoding(self, padding):
        pairs = 0
        for per_q, findings in search.sweep_stream("heat-degenerate", 1, 80, padding):
            lines = list(cli._pair_rows(per_q.q, findings, "json-lines"))
            assert lines == [cli._jline(records.pair_record(p)) for p in findings]
            pairs += len(lines)
        assert pairs > 1000

    def test_shared_fingerprint_rigidity_pairs_match_the_record_encoding(self, monkeypatch):
        share_one_fingerprint(monkeypatch)
        [(per_q, findings)] = search.sweep_stream("rigidity", 12, 12, 1)
        assert findings and all(
            p.isospectral and p.first_differing_k is None and p.heat_verdict is None
            for p in findings
        )
        lines = list(cli._pair_rows(per_q.q, findings, "json-lines"))
        assert lines == [cli._jline(records.pair_record(p)) for p in findings]


    # Text and csv spell each class's name once per order; every pair row
    # must still be the one that str(space) gives.
    @pytest.mark.parametrize("padding", [0, 1])
    def test_text_and_csv_pair_rows_name_classes_by_str(self, capsys, padding):
        findings = find_heat_degenerate(8, 80, padding).findings
        assert len(findings) > 1000
        argv = ["sweep", "8", "80", "--mode", "heat-degenerate", "--padding", str(padding)]
        _, out, _ = run_cli(capsys, *argv)
        assert [line for line in out.splitlines() if line.startswith("pair ")] == [
            f"pair q={p.first.q} {p.first} | {p.second} "
            f"first_differing_k={p.first_differing_k} {p.heat_verdict}"
            for p in findings
        ]
        _, out, _ = run_cli(capsys, *argv, "--format", "csv")
        expected = io.StringIO()
        cli._csv(expected, cli.PAIR_COLUMNS, (
            {**records.pair_record(p), "first": str(p.first), "second": str(p.second)}
            for p in findings
        ))
        assert out == expected.getvalue()


class TestRecordPrimitives:
    def test_fraction_roundtrip(self):
        for f in (Fraction(0), Fraction(-5, 3), Fraction(7), Fraction(1, 6240)):
            assert Fraction(records.fraction_str(f)) == f

    def test_lens_roundtrip(self):
        for space in (reduce(195, [6, 35]), reduce(9, [1, 3], 1)):
            assert LensSpace(**records.lens_record(space)) == space

    def test_witness_none_roundtrip(self):
        assert records.witness_record(None) is None

    def test_summary_counts_findings_from_per_order_rows(self):
        report = PairReport(reduce(5, [1, 2]), reduce(5, [1, 2]), None)
        results = [(PerQ(5, 3, 1, 0, 1), [report]), (PerQ(9, 6, 2, 1, 2), [report] * 2)]
        summary = summarize_sweep("rigidity", 5, 9, 0, results)
        rec = records.summary_record(summary)
        assert (rec["findings"], rec["small_q_findings"]) == (2, 1)
        assert (len(summary.findings), len(summary.small_q_findings)) == (2, 1)
        # The CLI folds the rows without the reports.
        rows_only = summarize_sweep("rigidity", 5, 9, 0, [(p, ()) for p, _ in results])
        assert records.summary_record(rows_only) == rec
