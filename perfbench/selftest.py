"""Tests of the benchmark's own parts: tracer, reference samples, error
accounting and queries.

    python3 perfbench/selftest.py

Named so that the repository's pytest run does not collect it; it takes a
few seconds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import qkahler  # noqa: E402
import run  # noqa: E402
from queries import QueryEngine, query_stream  # noqa: E402
from tracer import LAYERS, OUTSIDE, Tracer  # noqa: E402


class TracerTest(unittest.TestCase):

    def setUp(self):
        self.tracer = Tracer().install()
        self.addCleanup(self.tracer.uninstall)

    def test_call_through_verify_alias_counts_under_hodge(self):
        verify = sys.modules["qkahler.verify"]
        verify.gram(1, 1, 0, qkahler.H_EQ_Q)
        self.tracer.stop()
        self.assertEqual(self.tracer.counts()["hodge.gram"], 1)
        self.assertGreater(self.tracer.layer_self_s()["hodge"], 0.0)
        self.assertEqual(self.tracer.keys["gram"], {(1, 1, 0, qkahler.H_EQ_Q)})

    def test_cli_command_table_and_suite_table_are_wrapped(self):
        with contextlib.redirect_stdout(io.StringIO()):
            sys.modules["qkahler.cli"].main(["verify", "-n", "1", "--suite", "hodge"])
        self.tracer.stop()
        counts = self.tracer.counts()
        self.assertEqual(counts["cli.cmd_verify"], 1)
        self.assertEqual(counts["verify.suite_hodge"], 1)
        self.assertGreater(self.tracer.timed_s["verify.suite.hodge"], 0.0)
        self.assertEqual(self.tracer.timed_s["verify.suite.lids"], 0.0)

    def test_self_times_account_for_the_traced_run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = sys.modules["qkahler.cli"].main(["verify", "-n", "2", "--json"])
        self.tracer.stop()
        self.assertEqual(rc, 0)
        self_s = self.tracer.layer_self_s()
        wall = self.tracer.wall_s()
        self.assertTrue(all(v >= 0.0 for v in self_s.values()), self_s)
        layers = sum(self_s[layer] for layer in LAYERS)
        self.assertLessEqual(layers, wall)
        self.assertAlmostEqual(layers + self_s[OUTSIDE], wall, delta=1e-6)
        self.assertGreater(self_s["scalars"], self_s["cli"])
        incl = self.tracer.layer_incl_s()
        self.assertLessEqual(incl["hodge"], wall)
        self.assertGreaterEqual(incl["hodge"], self_s["hodge"])
        self.assertEqual(len(self.tracer.span_fn), len(self.tracer.span_end))

    def test_paused_calls_are_neither_counted_nor_timed(self):
        self.tracer.pause()
        qkahler.gram(1, 1, 0)
        self.tracer.resume()
        qkahler.gram(1, 0, 1)
        self.tracer.stop()
        self.assertEqual(self.tracer.counts()["hodge.gram"], 1)
        self_s = self.tracer.layer_self_s()
        self.assertAlmostEqual(sum(self_s.values()), self.tracer.wall_s(), delta=1e-6)
        self.assertGreater(self.tracer.paused_s, 0.0)

    def test_uninstall_restores_every_binding(self):
        self.tracer.uninstall()
        hodge_mod = sys.modules["qkahler.hodge"]
        self.assertIs(sys.modules["qkahler.verify"].gram, hodge_mod.gram)
        self.assertFalse(hasattr(hodge_mod.gram, "__wrapped__"))
        self.assertFalse(hasattr(qkahler.Scalar.__add__, "__wrapped__"))
        self.assertFalse(hasattr(vars(qkahler.Scalar)["q_power"].__func__, "__wrapped__"))
        self.assertFalse(hasattr(qkahler.SUITES["lids"], "__wrapped__"))


class FakeLaunch:
    """Stands in for run.Launch with a given verify report."""

    def __init__(self, stdout, rc=0, returncode=0):
        self.stdout = stdout
        self.returncode = returncode
        self.report = {"t_ready": 0.0, "rc": rc, "maxrss_kib": 1}
        self.stderr = ""

    problems = run.Launch.problems


class ErrorAccountingTest(unittest.TestCase):

    def setUp(self):
        self.reference = run.load_reference("verify-n3-hq")
        entries = [{"suite": s, "name": n, "status": st}
                   for s, n, st in self.reference["triples"]]
        self.doc = {"results": {"results": entries}, "failures": []}
        self.good = FakeLaunch(json.dumps(self.doc).encode())

    def tally(self, launch):
        """Error accounting over `launch` and one passing operation."""
        tally = run.Tally()
        tally.add(run.verify_problems(launch, self.reference))
        tally.add(run.verify_problems(self.good, self.reference))
        return tally

    def test_matching_report_passes(self):
        self.assertEqual(self.tally(FakeLaunch(json.dumps(self.doc).encode())).error_rate, 0.0)

    def test_failing_check_raises_error_rate(self):
        self.doc["results"]["results"][0]["status"] = "fail"
        self.assertEqual(self.tally(FakeLaunch(json.dumps(self.doc).encode(), rc=1)).error_rate, 0.5)

    def test_missing_check_raises_error_rate(self):
        del self.doc["results"]["results"][3]
        self.assertEqual(self.tally(FakeLaunch(json.dumps(self.doc).encode())).error_rate, 0.5)

    def test_nonzero_exit_and_unreadable_output_fail(self):
        launch = FakeLaunch(b"Traceback (most recent call last)", returncode=1)
        launch.report = None
        problems = run.verify_problems(launch, self.reference)
        self.assertTrue(any("exit code" in p for p in problems))
        self.assertTrue(any("unreadable" in p for p in problems))


class ReferenceTest(unittest.TestCase):

    def test_samples_interleave_with_the_work_and_are_subtracted(self):
        ref = child.Reference()
        with ref:
            first = len(ref.samples)
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 1.2:
                pass
            elapsed = time.perf_counter() - t0
        taken = len(ref.samples) - first
        self.assertGreaterEqual(taken, 2)
        self.assertGreater(ref.since(first), 0.0)
        self.assertLess(ref.since(first), elapsed)
        doc = ref.into({})
        self.assertAlmostEqual(doc["ref_total_s"], ref.since(0))
        self.assertEqual(len(ref.samples), taken)


class QueryTest(unittest.TestCase):

    def test_same_seed_same_queries(self):
        a = list(itertools.islice(query_stream(7), 200))
        b = list(itertools.islice(query_stream(7), 200))
        self.assertEqual(a, b)
        self.assertNotEqual(a, list(itertools.islice(query_stream(8), 200)))
        self.assertNotEqual(a, list(itertools.islice(query_stream(7, part=1), 200)))

    def test_every_block_holds_the_same_mix(self):
        block = list(itertools.islice(query_stream(3), 70))
        kinds = {(k, m) for k, m, _ in block}
        self.assertEqual(len(kinds), 10)
        self.assertEqual(sum(1 for k, _, _ in block if k == "decompose"), 14)

    def test_checks_accept_answers_and_reject_wrong_ones(self):
        engine = QueryEngine()
        engine.warm_up()
        seen = set()
        for query in itertools.islice(query_stream(11), 70):
            fn, args, ctx = engine.materialize(query)
            answer = fn(*args)
            self.assertTrue(engine.check(query, args, ctx, answer), query)
            kind = query[0]
            if kind in seen or kind == "certify":
                continue
            if kind == "metric":
                wrong = answer + qkahler.parse_scalar("1")
            elif kind == "decompose":
                wrong = answer[:-1]
            elif kind == "hodge":
                wrong = answer.scale(2)
            elif ctx[1] is None:  # lambda below degree 2 must vanish
                wrong = answer + engine.form((0, ((0, 0),)))
            else:
                continue
            self.assertFalse(engine.check(query, args, ctx, wrong), query)
            seen.add(kind)
        self.assertEqual(seen, {"hodge", "metric", "lambda", "decompose"})


if __name__ == "__main__":
    unittest.main()
