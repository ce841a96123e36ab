"""Self-tests for the benchmark's output checker and span recorder.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

The checker tests run the three workload commands once (about 20 s) and
check that their outputs are accepted, then that deliberately damaged
copies are rejected.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import unittest

from checks import WORKLOADS, check_output, load_reference
from run import ROOT, SRC, Request, child_env, end_to_end_metrics, layer_metrics
from spans import Tracer, installed


def _run_cli(workload: str) -> tuple[int, bytes]:
    done = subprocess.run(
        [sys.executable, "-m", "finiteweyl.cli", *WORKLOADS[workload][0]],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        timeout=120,
    )
    return done.returncode, done.stdout


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.outputs = {name: _run_cli(name) for name in WORKLOADS}
        cls.references = {name: load_reference(name) for name in WORKLOADS}

    def problems(self, workload: str, exit_code: int, payload: dict) -> list[str]:
        stdout = json.dumps(payload).encode()
        return check_output(workload, exit_code, stdout, self.references[workload])

    def payload(self, workload: str) -> dict:
        return json.loads(self.outputs[workload][1])

    def test_accepts_seed_outputs(self):
        for name, (code, stdout) in self.outputs.items():
            with self.subTest(workload=name):
                self.assertEqual(check_output(name, code, stdout, self.references[name]), [])

    def test_rejects_flipped_tau_exponent(self):
        payload = self.payload("mub-family")
        table = payload["bases"][5]["tau_exponents"]
        table[3][7] = (table[3][7] + 1) % (2 * payload["p"])
        self.assertTrue(self.problems("mub-family", 0, payload))

    def test_rejects_deviation_above_stated_tolerance(self):
        payload = self.payload("mub-family")
        payload["pairwise_deviation_matrix"][1][2] = 2 * payload["tolerance"]
        self.assertTrue(self.problems("mub-family", 0, payload))

    def test_rejects_labels_swapped_across_classes(self):
        payload = self.payload("tensor-partition")
        classes = payload["classes"]
        classes[0][0], classes[1][0] = classes[1][0], classes[0][0]
        self.assertTrue(self.problems("tensor-partition", 0, payload))

    def test_rejects_verify_exit_0(self):
        self.assertTrue(self.problems("verify-composite", 0, self.payload("verify-composite")))

    def test_rejects_other_failing_sets(self):
        original = self.payload("verify-composite")
        by_name = {c["name"]: i for i, c in enumerate(original["checks"])}

        extra = copy.deepcopy(original)
        check = extra["checks"][by_name["group.named_subgroups"]]
        check["status"], check["max_deviation"] = "fail", 1.0
        self.assertTrue(self.problems("verify-composite", 1, extra))

        none = copy.deepcopy(original)
        check = none["checks"][by_name["group.class_count_formula"]]
        check["status"], check["max_deviation"] = "pass", 0.0
        self.assertTrue(self.problems("verify-composite", 1, none))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class SpanTest(unittest.TestCase):
    def test_self_time_is_parent_minus_children(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def child():
            clock.now += 2.0

        child = tracer.wrap("child", child)

        def parent():
            clock.now += 1.0
            child()
            child()
            clock.now += 0.5

        tracer.wrap("parent", parent)()
        spans = tracer.to_json()["spans"]
        self.assertEqual(spans["parent"], {"calls": 1, "busy_s": 5.5, "self_s": 1.5})
        self.assertEqual(spans["child"], {"calls": 2, "busy_s": 4.0, "self_s": 4.0})
        self.assertEqual(
            tracer.to_json()["edges"],
            [{"caller": "parent", "callee": "child", "calls": 2, "busy_s": 4.0}],
        )

    def test_wraps_every_import_site_and_restores(self):
        sys.path.insert(0, str(SRC))
        from finiteweyl import cli, mub, operators, suites

        originals = (cli.mub_family, mub.mub_family, operators.MonomialOperator.to_matrix)
        tracer = Tracer()
        with installed(tracer):
            self.assertIs(cli.mub_family, mub.mub_family)
            self.assertIsNot(cli.mub_family, originals[0])
            self.assertIs(suites.mub_mod.unbiasedness, mub.unbiasedness)
            operators.MonomialOperator.identity(3).to_matrix()
        self.assertEqual(tracer.spans["operators.to_matrix"][0], 1)
        self.assertEqual(tracer.spans["phases.to_complex"][0], 3)
        self.assertEqual(
            (cli.mub_family, mub.mub_family, operators.MonomialOperator.to_matrix), originals
        )


class MetricNamesTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        empty = {"spans": {}, "counters": {}, "checks": {}}
        produced = set(layer_metrics(empty)) | {"trace.overhead_ratio"}
        self.assertEqual(produced, {m["name"] for m in spec["per_layer"]})
        request = Request(traced=False, wall_s=1.0, cpu_s=1.0, maxrss_mb=1.0, exit_code=0)
        produced = set(end_to_end_metrics([0.1], [request]))
        self.assertEqual(produced, {m["name"] for m in spec["end_to_end"]})
        self.assertEqual(set(WORKLOADS), {w["name"] for w in spec["workloads"]})


if __name__ == "__main__":
    unittest.main()
