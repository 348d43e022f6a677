#!/usr/bin/env python3
"""Smoke tests of the benchmark, so it cannot rot unnoticed.

Run from anywhere: python3 perfbench/test_perfbench.py
Every workload runs at smoke scale (2^14 values) in both modes with every
correctness gate on; the gate must fail on one corrupted answer, and the
in-process and TCP clusters must answer identically.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["serve", "shard", "cluster"]
BINARY = None


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def drive(*args):
    """Runs the perfbench binary; returns (exit code, stdout lines, result)."""
    done = subprocess.run([BINARY, "--seed", "3", "--seconds", "1", "--smoke",
                           *args], capture_output=True, text=True, timeout=120,
                          cwd=run.ROOT)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return done.returncode, lines, result


def printed(lines, name):
    for line in lines:
        if line.startswith(name + " "):
            return line.split()[1]
    return None


class SmokeTest(unittest.TestCase):
    def check_result(self, code, result, names):
        self.assertEqual(code, 0)
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(names))
        units = {m["name"]: m["unit"] for m in
                 spec()["end_to_end"] + spec()["per_layer"]}
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_every_workload(self):
        names = [m["name"] for m in spec()["end_to_end"]]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, _, result = drive("--workload", workload, "--trace", "0")
                self.check_result(code, result, names)
                for name in names:
                    self.assertGreater(result["metrics"][name]["value"], 0,
                                       name)

    def test_traced_every_workload(self):
        names = [m["name"] for m in spec()["per_layer"]]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, _, result = drive("--workload", workload, "--trace", "1")
                self.check_result(code, result, names)

    def test_traced_layers_on_path_are_measured(self):
        on_path = {
            "serve": ["kernel.touched", "index.cracks", "column.exec_us.p50",
                      "epoch.shared_frac", "epoch.self_us",
                      "updates.stage_us.p50", "write_p99_us"],
            "shard": ["router.fanout", "router.self_us", "node.exec_us"],
            "cluster": ["wire.bytes_per_query", "wire.encode_us",
                        "transport.call_us.p50", "transport.hop_us",
                        "setup.listen_s"],
        }
        for workload, names in on_path.items():
            with self.subTest(workload=workload):
                code, _, result = drive("--workload", workload, "--trace", "1")
                self.assertEqual(code, 0)
                for name in names:
                    self.assertGreater(result["metrics"][name]["value"], 0,
                                       name)

    def test_one_stage_span_per_traced_insert(self):
        code, lines, _ = drive("--workload", "serve", "--trace", "1")
        self.assertEqual(code, 0)
        spans = printed(lines, "updates.stage_spans")
        self.assertIsNotNone(spans)
        self.assertGreater(int(spans), 0)
        self.assertEqual(spans, printed(lines, "updates.traced_inserts"))

    def test_gate_fails_on_a_corrupted_answer(self):
        code, _, result = drive("--workload", "serve", "--trace", "0",
                                "--corrupt-one")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_shard_and_cluster_answer_identically(self):
        sums = {}
        for workload in ["shard", "cluster"]:
            code, lines, _ = drive("--workload", workload, "--trace", "0")
            self.assertEqual(code, 0)
            sums[workload] = (printed(lines, "checksum.cold"),
                              printed(lines, "checksum.final"))
            self.assertIsNotNone(sums[workload][0])
        self.assertEqual(sums["shard"], sums["cluster"])

    def test_unknown_workload_is_a_usage_error(self):
        code, _, result = drive("--workload", "nope", "--trace", "0")
        self.assertEqual(code, 2)
        self.assertIsNone(result)


if __name__ == "__main__":
    BINARY = run.build()
    if BINARY is None:
        sys.exit(2)
    unittest.main()
