"""Shows that each correctness check of the benchmark rejects a corrupted
output, and accepts the honest one.

Run from the root of a checkout (it builds the probe if no benchmark run
has yet):

    python3 perfbench/test_checks.py
"""

import json
import os
import shutil
import tempfile
import unittest

import checks
import run
from checks import CheckError


class PlanChecks(unittest.TestCase):
    def test_plan_over_budget(self):
        plan = [f"OP@g{i}" for i in range(8)]
        checks.plan_within_budget(plan, 8)
        with self.assertRaises(CheckError):
            checks.plan_within_budget(plan + ["CP-XOR@g9"], 8)

    def test_score_off_by_1e_6(self):
        # cmp32's default plan scores about 252 expected detections.
        predicted = 252.44239991930868
        checks.score_matches(predicted, predicted, "cmp32")
        with self.assertRaises(CheckError):
            checks.score_matches(predicted + 1e-6, predicted, "cmp32")
        with self.assertRaises(CheckError):
            checks.score_matches(4192.0 * (1 + 1e-6), 4192.0, "dag2000")

    def test_plan_below_empty(self):
        checks.not_below(245.03, 1.03, "cmp32 plan")
        with self.assertRaises(CheckError):
            checks.not_below(1.0, 1.03, "cmp32 plan")

    def test_served_plan_differs(self):
        with self.assertRaises(CheckError):
            checks.same(["OP@andt27"], ["OP@andt26"], "plan points")


class ServeChecks(unittest.TestCase):
    def test_response_with_wrong_id(self):
        checks.response_ok({"id": 7, "ok": True, "result": {}}, 7)
        with self.assertRaises(CheckError):
            checks.response_ok({"id": 8, "ok": True, "result": {}}, 7)

    def test_response_not_ok(self):
        with self.assertRaises(CheckError):
            checks.response_ok({"id": 7, "ok": False, "error": {}}, 7)


class DetectionClaims(unittest.TestCase):
    """The probe's own evaluator against the fault simulator's claims."""

    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(".bench_work", exist_ok=True)
        cls.work = tempfile.mkdtemp(prefix="test-", dir=".bench_work")
        cls.tpb = run.tpb(cls.work, "dag2000")
        run.convert(cls.work, ["dag2000"])
        cls.claims = os.path.join(cls.work, "claims")
        # dag2000 without test points leaves about 25 faults undetected,
        # so both kinds of claim are at hand.
        cls.oracle = json.loads(run.probe(
            cls.work, "oracle", "oracle", cls.tpb, "--points", "",
            "--patterns", 4096, "--seed", 3, "--sample", 16,
            "--claims-out", cls.claims))
        with open(cls.claims) as f:
            cls.lines = [line.split() for line in f]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)
        if not os.listdir(".bench_work"):
            os.rmdir(".bench_work")

    def verify(self, lines):
        path = os.path.join(self.work, "claims.edited")
        with open(path, "w") as f:
            f.writelines(" ".join(line) + "\n" for line in lines)
        run.verify(self.work, "verify", self.tpb, [], 3,
                   self.oracle["patterns_applied"], 8, path)

    def test_honest_claims_pass(self):
        self.assertTrue(any(p != "-1" for _, _, p in self.lines))
        self.assertTrue(any(p == "-1" for _, _, p in self.lines))
        self.verify(self.lines)

    def test_undetected_fault_marked_detected(self):
        net, sa, _ = next(line for line in self.lines if line[2] == "-1")
        with self.assertRaises(CheckError):
            self.verify([[net, sa, "0"]])

    def test_detected_fault_at_wrong_pattern(self):
        net, sa, pattern = next(line for line in self.lines
                                if int(line[2]) > 0)
        with self.assertRaises(CheckError):
            self.verify([[net, sa, str(int(pattern) - 1)]])

    def test_detected_fault_marked_undetected(self):
        net, sa, _ = next(line for line in self.lines if line[2] != "-1")
        path = os.path.join(self.work, "claims.undetected")
        with open(path, "w") as f:
            f.write(f"{net} {sa} -1\n")
        with self.assertRaises(CheckError):
            # Every pattern block, so the detecting one is among them.
            run.verify(self.work, "verify", self.tpb, [], 3,
                       self.oracle["patterns_applied"],
                       self.oracle["patterns_applied"] // 64, path)


if __name__ == "__main__":
    unittest.main()
