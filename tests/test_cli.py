import gc
import json
import subprocess
import sys
import weakref
from fractions import Fraction

from orbilens import cli, records, search
from orbilens.cli import main
from orbilens.core import IsometryWitness, reduce
from orbilens.heat import heat_expansion_3d
from orbilens.search import (
    PairReport,
    PerQ,
    find_heat_degenerate,
    summarize_sweep,
    verify_rigidity,
)
from orbilens.spectrum import is_isospectral, spectrum_table


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
        table = records.parse_spectrum_table(env["result"])
        assert table == spectrum_table(reduce(9, [1, 3]), 6)

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
        code, out, err = run_cli(capsys, "spectrum", "400", "1", "--kmax", "100000000")
        assert code == 2 and out == ""
        assert err.startswith("error: degree 100000000 ") and "cell limit" in err


    def test_huge_padding_exits_2(self, capsys):
        for rotations in (["1", "2"], ["1"]):
            code, out, err = run_cli(
                capsys, "spectrum", "7", *rotations, "--padding", "1000000000", "--kmax", "2"
            )
            assert code == 2 and out == ""
            assert err.startswith("error: degree 2 ") and "cell limit" in err

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
        witness = records.parse_witness(env["result"]["witness"])
        assert witness == IsometryWitness(2, (1, -1), (0, 1))

    def test_isospectral_json_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "isospectral", "195", "3", "5", "--format", "json-lines", "--", "6", "35"
        )
        env = json.loads(out)
        decision = records.parse_decision(env["result"]["decision"])
        assert decision == is_isospectral(reduce(195, [3, 5]), reduce(195, [6, 35]))


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
        expansion = heat_expansion_3d(reduce(195, [3, 5]))
        parsed = tuple(records.parse_heat_term(t) for t in env["result"]["terms"])
        assert parsed == expansion.terms
        assert parsed[1].coefficient.sqrt_pi == Fraction(28, 45)

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
        parsed_pairs = tuple(
            records.parse_pair(r) for r in recs if r["record"] == "pair"
        )
        assert parsed_pairs == summary.findings
        parsed_perq = tuple(records.parse_per_q(r) for r in recs if r["record"] == "per_q")
        assert parsed_perq == summary.per_q
        tail = [r for r in recs if r["record"] == "summary"][0]
        assert tail == records.summary_record(summary)

    def test_rigidity_json_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "8", "14", "--format", "json-lines")
        recs = [json.loads(line) for line in out.splitlines()]
        summary = verify_rigidity(8, 14)
        assert [r["classes"] for r in recs if r["record"] == "per_q"] == [
            p.classes for p in summary.per_q
        ]

    def test_each_orders_reports_dropped_before_the_next(self, capsys, monkeypatch):
        alive, leaked, found = [], [], []

        def tracked(*args):
            for per_q, reports in search.sweep_stream(*args):
                # The CLI has asked for this order; count the last order's
                # reports that are still reachable.
                gc.collect()
                leaked.append(sum(ref() is not None for ref in alive))
                alive[:] = [weakref.ref(r) for r in reports]
                found.append(len(reports))
                yield per_q, reports

        monkeypatch.setattr(cli, "sweep_stream", tracked)
        code, out, _ = run_cli(
            capsys, "sweep", "190", "200", "--mode", "heat-degenerate", "--format", "json-lines"
        )
        assert code == 0
        assert leaked == [0] * 11
        assert sum(found) == json.loads(out.splitlines()[-1])["findings"]
        assert sum(n > 0 for n in found) >= 2

    def test_csv_heat_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "10", "12", "--mode", "heat-degenerate", "--format", "csv"
        )
        lines = out.splitlines()
        assert lines[0] == "q,first,second,first_differing_k,heat_verdict"

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


class TestRecordPrimitives:
    def test_fraction_roundtrip(self):
        for f in (Fraction(0), Fraction(-5, 3), Fraction(7), Fraction(1, 6240)):
            assert records.parse_fraction(records.fraction_str(f)) == f

    def test_lens_roundtrip(self):
        for space in (reduce(195, [6, 35]), reduce(9, [1, 3], 1)):
            assert records.parse_lens(records.lens_record(space)) == space

    def test_witness_none_roundtrip(self):
        assert records.parse_witness(records.witness_record(None)) is None

    def test_summary_counts_findings_from_per_order_rows(self):
        report = PairReport(reduce(5, [1, 2]), reduce(5, [1, 2]), False, None, True, None)
        results = [(PerQ(5, 3, 1, 0, 1), [report]), (PerQ(9, 6, 2, 1, 2), [report] * 2)]
        summary = summarize_sweep("rigidity", 5, 9, 0, results)
        rec = records.summary_record(summary)
        assert (rec["findings"], rec["small_q_findings"]) == (2, 1)
        assert (len(summary.findings), len(summary.small_q_findings)) == (2, 1)
        # The CLI folds the rows without the reports.
        rows_only = summarize_sweep("rigidity", 5, 9, 0, [(p, ()) for p, _ in results])
        assert records.summary_record(rows_only) == rec
