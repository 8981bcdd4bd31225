"""Self-tests of the benchmark: its output oracle, its request isolation and
its tracing.

    python3 perfbench/selftest.py

They run against the package in the checkout and take a few seconds.
"""

from __future__ import annotations

import io
import json
import os
import sys
import unittest
from contextlib import redirect_stdout
from unittest import mock

import harness
import run
import tracing
import workloads

FORMULA = workloads.formula_request("chain", "110110", "json")
TEXT_FORMULA = workloads.formula_request("expand", "110110", "text")
REPORT = workloads.Request(
    ("verify", "--suite", "theorem-b", "--seed", "5", "--trials", "2", "--kmax", "3"), reports=3, trials=2
)
SLOW = workloads.formula_request("chain", "111111", "text")


def setUpModule():
    global TARGET, REFERENCES
    TARGET = harness.Target(run.ROOT)
    REFERENCES = run.load_references()


def corrupting(edit):
    """A stand-in for ``cli.main`` that runs the real one and edits its stdout."""
    real = TARGET.cli.main

    def main(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = real(argv)
        sys.stdout.write(edit(buf.getvalue()))
        return code

    return main


class OutputOracle(unittest.TestCase):
    def test_catalog_requests_pass(self):
        outcomes, _, _ = harness.run_rounds(TARGET, [[FORMULA, TEXT_FORMULA, REPORT]], REFERENCES)
        self.assertEqual([o.error for o in outcomes], [None, None, None])

    def test_every_drawn_formula_has_a_reference(self):
        keys = {r.key for r in workloads.formula_catalog()}
        self.assertEqual(keys, set(REFERENCES))
        for seed in range(5):
            for req in workloads.make_round("formulas", seed, 0):
                self.assertIn(req.key, REFERENCES)

    def test_corrupted_outputs_count_as_failures(self):
        flip_digit = corrupting(lambda text: text.replace("1", "2", 1))
        more_trials = corrupting(lambda text: text.replace('"trials": 2', '"trials": 3', 1))
        failed_verdict = corrupting(lambda text: text.replace('"passed": true', '"passed": false', 1))
        cases = [(flip_digit, FORMULA), (flip_digit, TEXT_FORMULA), (more_trials, REPORT), (failed_verdict, REPORT)]
        outcomes = []
        for main, req in cases:
            with mock.patch.object(TARGET.cli, "main", main):
                outcomes += harness.run_rounds(TARGET, [[req]], REFERENCES)[0]
        self.assertTrue(all(not o.ok for o in outcomes), [o.error for o in outcomes])
        result, meta = run.summarize(outcomes, 1.0, [0.1])
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (4, 4))
        self.assertEqual(meta["failure_rate"], 1.0)

    def test_exit_code_and_exception_count_as_failures(self):
        def boom(argv):
            raise RuntimeError("boom")

        outcomes = []
        for main in (lambda argv: 1, boom):
            with mock.patch.object(TARGET.cli, "main", main):
                outcomes += harness.run_rounds(TARGET, [[REPORT]], REFERENCES)[0]
        self.assertIn("exit code 1", outcomes[0].error)
        self.assertIn("boom", outcomes[1].error)


class Isolation(unittest.TestCase):
    def test_request_starts_with_cold_caches(self):
        symbolic = TARGET.symbolic
        asets = TARGET.modules["asets"]
        combinatorics = TARGET.modules["combinatorics"]

        def probe():
            sizes = [f.cache_info().currsize for f in (
                symbolic.expand_chain, combinatorics.enumerate_partitions, asets._ones_families)]
            result = harness.execute(TARGET, FORMULA)
            result["sizes"] = sizes
            return result

        for _ in range(2):
            _, result = harness.run_forked(probe)
            self.assertEqual(result["sizes"], [0, 0, 0])
            self.assertIsNone(result["error"])
        names = [name for name, _ in TARGET.caches]
        for name in ("symbolic.expand_chain", "combinatorics.enumerate_partitions", "asets._ones_families"):
            self.assertIn(name, names)

    def test_warm_cache_is_detected(self):
        def twice_in_one_process():
            first = harness.execute(TARGET, FORMULA)
            return {"first": first["error"], "second": harness.execute(TARGET, FORMULA)["error"]}

        _, result = harness.run_forked(twice_in_one_process)
        self.assertIsNone(result["first"])
        self.assertIn("warm cache", result["second"])

    def test_identical_requests_cost_the_same(self):
        forked = [harness.run_request(TARGET, SLOW, REFERENCES).latency_s for _ in range(3)]
        self.assertLess(max(forked) / min(forked), 2.0, forked)

        # The control: in one process the second call finds the caches warm.
        def in_process():
            from time import perf_counter

            times = []
            for _ in range(2):
                start = perf_counter()
                harness.call_cli(TARGET, SLOW.argv)
                times.append(perf_counter() - start)
            return {"times": times}

        _, result = harness.run_forked(in_process)
        first, second = result["times"]
        self.assertGreater(first / second, 5.0, result["times"])


class Tracing(unittest.TestCase):
    def test_traced_outputs_and_layers(self):
        requests = [FORMULA, TEXT_FORMULA, REPORT]
        plain, _, _ = harness.run_rounds(TARGET, [requests], REFERENCES)

        def traced():
            tracer = tracing.install(TARGET)
            outcomes = [harness.run_request(TARGET, req, REFERENCES, tracer) for req in requests]
            return {"outcomes": [(o.error, o.sha256, o.layer) for o in outcomes]}

        _, result = harness.run_forked(traced)
        errors = [e for e, _, _ in result["outcomes"]]
        self.assertEqual(errors, [None, None, None])
        self.assertEqual([o.sha256 for o in plain], [sha for _, sha, _ in result["outcomes"]])
        layers = [layer for _, _, layer in result["outcomes"]]
        metrics = tracing.layer_metrics(layers, 1, 1.0)
        self.assertGreater(metrics["symbolic.parse.json.self_s"], 0)
        self.assertGreater(metrics["symbolic.parse.text.self_s"], 0)
        self.assertGreater(metrics["numeric.eval_expr.calls"], 0)
        self.assertGreater(metrics["numeric.eval_expr.nodes_visited"], metrics["numeric.eval_expr.calls"])
        self.assertGreater(metrics["combinatorics.MultiIndex.built"], 0)
        self.assertGreater(metrics["symbolic.tree_nodes"], metrics["symbolic.distinct_nodes"])
        self.assertEqual(metrics["polynomials.self_s"], 0.0)
        self.assertEqual(metrics["numeric.trials"], 6)
        # Every span has a parent, and self time never exceeds span time.
        for layer in layers:
            for parent, name, calls, total, own in layer["groups"]:
                self.assertTrue(parent or name == "harness.request")
                self.assertLessEqual(own, total + 1e-9)


class Contract(unittest.TestCase):
    def test_tail_percentile(self):
        self.assertEqual(run.tail_latency([float(i) for i in range(1, 101)]), (90, 90.0))
        self.assertEqual(run.tail_latency([1.0, 2.0]), (100, 2.0))
        p, value = run.tail_latency([float(i) for i in range(1, 55)])
        self.assertEqual(sum(v > value for v in range(1, 55)), 10)

    def test_metric_names_match_benchmark_json(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside the benchmark")
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([m["name"] for m in spec["per_layer"]], [n for n, _, _ in tracing.PER_LAYER])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        result, _ = run.summarize(
            [harness.Outcome(REPORT, 0.5, 20.0, None)], 1.0, [0.1])
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(result["metrics"]))


if __name__ == "__main__":
    unittest.main()
