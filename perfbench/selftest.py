"""The benchmark's own tests.  Run: ``python3 perfbench/selftest.py``.

They exercise the checks, the span arithmetic and the metric names
without running orbilens.
"""

import json
import re
import types
import unittest
from pathlib import Path

import checks
import oracle
import run
import workloads
from tracing import Tracer, self_times

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _sweep_report(workload, stdout):
    op = {"argv": workloads.sweep_argv(workload), "code": 0, "stdout": stdout, "latency_s": 1.0}
    return {"ops": [op], "recheck": []}


def _spectrum_output(q, rots, pad, kmax):
    space = {"q": q, "rotations": list(rots), "padding": pad}
    mult = oracle.multiplicities(q, rots, pad, kmax)
    rows = [
        {"k": k, "eigenvalue": k * (k + 2 + pad), "multiplicity": int(mult[k])}
        for k in range(kmax + 1)
    ]
    env = {
        "command": "spectrum",
        "version": "0",
        "inputs": {"space": space, "kmax": kmax},
        "result": {"space": space, "rows": rows},
    }
    return json.dumps(env) + "\n"


class CorruptedOutputs(unittest.TestCase):
    def test_corrupted_sweep_stdout_fails(self):
        for workload in workloads.SWEEPS:
            report = _sweep_report(workload, '{"record":"summary"}\n')
            self.assertEqual(run.check_ops(workload, [report])[:2], (1, 1))

    def test_corrupted_query_stdout_fails(self):
        argv = ["spectrum", "12", "1", "5", "--padding", "1", "--kmax", "9"]
        good = _spectrum_output(12, (1, 5), 1, 9)
        bad = good.replace('"multiplicity": 1', '"multiplicity": 2', 1)
        self.assertNotEqual(good, bad)
        for stdout, failures in ((good, 0), (bad, 1), (good[:-5], 1), ("", 1)):
            report = {"ops": [{"argv": argv, "code": 0, "stdout": stdout}]}
            _, failed, _ = run.check_ops("queries", [report])
            self.assertEqual(failed, failures, stdout)

    def test_same_command_must_repeat_its_bytes(self):
        argv = ["spectrum", "12", "1", "5", "--padding", "0", "--kmax", "3"]
        good = _spectrum_output(12, (1, 5), 0, 3)
        ops = [{"argv": argv, "code": 0, "stdout": s} for s in (good, good, good.replace(" ", "  "))]
        self.assertEqual(run.check_ops("queries", [{"ops": ops}])[:2], (3, 1))

    def test_wrong_verdicts_fail(self):
        ref = checks.Oracle()
        # L(7:1,2) and L(7:2,3) are isometric (unit 2 maps (1,2) to (2,4) = (2,-3)).
        iso = ["isometric", "7", "1", "2", "--padding", "0", "--format", "json-lines", "--", "2", "3"]
        inputs = {
            "first": {"q": 7, "rotations": [1, 2], "padding": 0},
            "second": {"q": 7, "rotations": [2, 3], "padding": 0},
        }
        witness = {"unit": 2, "signs": [1, -1], "permutation": [0, 1]}
        ok = {"command": "isometric", "inputs": inputs, "result": {"verdict": True, "witness": witness}}
        self.assertEqual(checks.check_query(iso, json.dumps(ok), ref), [])
        for result in (
            {"verdict": False, "witness": None},
            {"verdict": True, "witness": {**witness, "unit": 3}},
        ):
            env = {**ok, "result": result}
            self.assertTrue(checks.check_query(iso, json.dumps(env), ref), result)
        spec = ["isospectral", *iso[1:]]
        decision = {"isospectral": False, "first_differing_k": 2, "checked_upto": 30, "reason": ""}
        env = {"command": "isospectral", "inputs": inputs, "result": {"verdict": False, "decision": decision}}
        self.assertTrue(checks.check_query(spec, json.dumps(env), ref))

    def test_series_cached_deeper_still_compare(self):
        # A spectrum query deeper than 4q + 2 caches a longer series for
        # one space; a later isospectral check of that space against
        # another must still compare equal lengths.
        ref = checks.Oracle()
        self.assertEqual(ref.multiplicities(8, (1, 3), 0, 62).size, 63)
        inputs = {
            "first": {"q": 8, "rotations": [1, 3], "padding": 0},
            "second": {"q": 8, "rotations": [1, 1], "padding": 0},
        }
        a, b = oracle.multiplicities(8, (1, 3), 0, 34), oracle.multiplicities(8, (1, 1), 0, 34)
        k = int((a != b).nonzero()[0][0])
        argv = ["isospectral", "8", "1", "3", "--padding", "0", "--", "1", "1"]
        for first_k, problems in ((k, 0), (k + 1, 1)):
            decision = {"isospectral": False, "first_differing_k": first_k, "checked_upto": 34}
            env = {"command": "isospectral", "inputs": inputs, "result": {"verdict": False, "decision": decision}}
            self.assertEqual(len(checks.check_query(argv, json.dumps(env), ref)), problems)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_on_nested_trace(self):
        spans = [
            ["cli", 0.0, 10.0, -1, None],
            ["a", 1.0, 4.0, 0, None],
            ["a.inner", 2.0, 3.0, 1, None],
            ["b", 5.0, 9.0, 0, None],
            ["b.inner", 6.0, 7.0, 3, None],
            ["b.inner", 6.5, 8.0, 3, None],  # overlaps its sibling: counted once
        ]
        self.assertEqual(self_times(spans), [3.0, 2.0, 1.0, 2.0, 1.0, 1.5])

    def test_wrappers_nest_and_stream(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap("inner", lambda x: x + 1)
        stream = tracer.wrap_stream("stream", lambda n: (inner(i) for i in range(n)))
        with tracer.span("cli"):
            self.assertEqual(list(stream(2)), [1, 2])
        shape = [(s[0], s[3]) for s in tracer.spans]
        self.assertEqual(
            shape,
            [("cli", -1), ("stream", 0), ("inner", 1), ("stream", 0), ("inner", 3), ("stream", 0)],
        )
        self.assertEqual([s[4] for s in tracer.spans[1::2]], ["item", "item", "stop"])
        report = {"ops": [{"stdout": "", "latency_s": 1.0}], "spans": tracer.spans}
        metrics = run.layer_metrics(report)
        self.assertEqual(metrics["search.per_q_ms.max"], 0.0)  # not a sweep_stream span
        self.assertEqual(metrics["cli.self_s"], sum(self_times(tracer.spans)[:1]))

    def test_missing_names_are_absent(self):
        module = types.ModuleType("orbilens.cli")
        module.is_isometric = lambda a, b: None
        absent = Tracer().install({"orbilens.cli": module})
        self.assertNotIn("orbilens.cli.is_isometric", absent)
        self.assertIn("orbilens.cli.sweep_stream", absent)
        self.assertIn("orbilens.heat.canonical_form", absent)
        metrics = run.layer_metrics({"ops": [], "spans": []})
        self.assertEqual(set(metrics) | {"trace.overhead_ratio"}, set(run.PER_LAYER_UNITS))


class Names(unittest.TestCase):
    def test_names_match_the_contract(self):
        bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
        groups = {key: [m["name"] for m in bench[key]] for key in ("workloads", "end_to_end", "per_layer")}
        for names in groups.values():
            self.assertEqual(len(names), len(set(names)))
            for name in names:
                self.assertTrue(NAME_RE.fullmatch(name), name)
        self.assertEqual(groups["workloads"], list(workloads.WORKLOADS))
        self.assertEqual(groups["end_to_end"], list(run.END_TO_END_UNITS))
        self.assertEqual(groups["per_layer"], list(run.PER_LAYER_UNITS))
        for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
            for metric in bench[key]:
                self.assertEqual(metric["unit"], units[metric["name"]])


class QueryStream(unittest.TestCase):
    def test_seeded_and_mixed(self):
        a = workloads.query_stream(7, 400)
        self.assertEqual(a, workloads.query_stream(7, 400))
        self.assertNotEqual(a, workloads.query_stream(8, 400))
        kinds = [argv[0] for argv in a]
        self.assertEqual(
            [kinds.count(k) for k in ("isospectral", "spectrum", "isometric", "heat")],
            [160, 120, 80, 40],
        )
        for argv in a:
            q = int(argv[1])
            self.assertTrue(workloads.QMIN <= q <= workloads.QMAX)
            if argv[0] == "heat":
                self.assertEqual(argv[argv.index("--padding") + 1], "0")


if __name__ == "__main__":
    unittest.main()
