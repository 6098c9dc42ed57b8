"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root; builds the binary first (see run.py). Covers
seeded input generation, planted faults raising the failure count, and the
shape of the result line against BENCHMARK.json.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

WORKLOADS = run.WORKLOADS


def drive(*args):
    """Runs the built binary and returns its stdout lines parsed as JSON."""
    proc = subprocess.run([str(run.BINARY), *args], stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if run.build() is None:
            raise RuntimeError("perfbench build failed")

    def inputs(self, workload, seed):
        return drive("--workload", workload, "--seed", str(seed), "--print-inputs")[-1]["inputs"]

    def test_inputs_repeat_for_one_seed_and_differ_for_another(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.inputs(workload, 7)
                self.assertEqual(first, self.inputs(workload, 7))
                self.assertNotEqual(first, self.inputs(workload, 8))

    def result(self, workload, *extra):
        return drive("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0",
                     *extra)[-1]

    def test_clean_fanout_fails_nothing(self):
        result = self.result("fanout")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)

    def test_planted_loss_on_a_bank_lan_fails_fanout_deliveries(self):
        result = self.result("fanout", "--plant-fault")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["failed"], result["attempted"])

    def test_seeded_mutation_fails_check_replays(self):
        result = self.result("check", "--plant-fault")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_result_line_carries_every_metric_by_name_and_unit(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(Path(run.__file__)), "--workload", workload,
                         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                        stdout=subprocess.PIPE, text=True, timeout=2 * run.RUN_TIMEOUT_S)
                    self.assertEqual(proc.returncode, 0)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    expected = run.expected_metrics(trace)
                    self.assertIsNone(run.validate(result, expected))
                    self.assertTrue(result["correct"])
                    if trace == 0:
                        for name in expected:
                            self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_validate_rejects_a_missing_metric(self):
        expected = run.expected_metrics(0)
        metrics = {name: {"value": 1.0, "unit": unit} for name, unit in expected.items()}
        good = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
        self.assertIsNone(run.validate(good, expected))
        dropped = dict(metrics)
        dropped.pop(next(iter(expected)))
        self.assertIsNotNone(run.validate(dict(good, metrics=dropped), expected))


if __name__ == "__main__":
    unittest.main()
