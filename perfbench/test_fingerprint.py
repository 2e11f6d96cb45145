#!/usr/bin/env python3
"""The benchmark's own test: a seed fixes the simulated run.

    python3 perfbench/test_fingerprint.py

Runs every workload briefly (--seconds 1) three times: twice with one
seed, which must print the same fingerprint (a hash over every
interaction's start, end, outcome and procedure) and the same simulated
metrics, and once with another seed, which must change the fingerprint.
Builds dmvbench first, as perfbench/run.py does.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("shopping", "orders", "scan")
SIMULATED = ("wips", "read_p50_ms", "read_p95_ms", "update_mean_ms",
             "update_p99_ms", "success_rate")


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, check=True, cwd=os.path.dirname(HERE))
    fingerprint = re.search(r"fingerprint=([0-9a-f]{16})", out.stdout)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return fingerprint.group(1), result


class Fingerprint(unittest.TestCase):
    def test_seed_fixes_the_simulation(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                fp_a, res_a = run(workload, 5)
                fp_b, res_b = run(workload, 5)
                fp_c, _ = run(workload, 6)
                self.assertTrue(res_a["correct"])
                self.assertEqual(fp_a, fp_b)
                for name in SIMULATED:
                    self.assertEqual(res_a["metrics"][name]["value"],
                                     res_b["metrics"][name]["value"], name)
                self.assertNotEqual(fp_a, fp_c)


if __name__ == "__main__":
    unittest.main()
