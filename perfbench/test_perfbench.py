#!/usr/bin/env python3
"""Self-tests of the repo benchmark. Run from the root of the repository:

    python3 perfbench/test_perfbench.py

They build cwdb_perfbench like run.py does, then check that

* the benchmark's operation loop, untraced and traced, leaves exactly the
  records and log volume that TpcbWorkload::RunOps leaves with the same seed
  (its --selftest mode);
* with one client, a fixed seed and a fixed number of rounds, the counts a
  later change may cite repeat exactly across two traced runs;
* the metric names it prints are the ones BENCHMARK.json declares.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

# Counts that must repeat exactly with one client and a fixed seed.
EXACT_PREFIXES = ("wal.bytes_per_op.", "wal.appends_per_op.",
                  "protect.prechecks_per_op.", "protect.folds_per_op.",
                  "protect.mprotect_calls_per_op", "recovery.redo_records",
                  "ckpt.pages_written")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.data = os.path.join(run.build_dir(), "data",
                                f"selftest-{os.getpid()}")

    def tearDown(self):
        shutil.rmtree(self.data, ignore_errors=True)

    def perfbench(self, *args):
        shutil.rmtree(self.data, ignore_errors=True)
        proc = subprocess.run([self.binary, *args, "--dir", self.data],
                              capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        return proc.stdout

    def fixed_run(self, workload, trace):
        out = self.perfbench("--workload", workload, "--seed", "3",
                          "--seconds", "1", "--rounds", "2", "--small",
                          "--trace", str(trace))
        result = json.loads(out.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(run.check_result(result, trace), [])
        return result["metrics"]

    def test_loop_matches_tpcb_workload(self):
        out = self.perfbench("--selftest", "--seed", "11")
        self.assertIn("selftest: ok", out)

    def test_counts_repeat_exactly(self):
        first = self.fixed_run("table2", 1)
        second = self.fixed_run("table2", 1)
        exact = [n for n in first if n.startswith(EXACT_PREFIXES)]
        self.assertGreaterEqual(len(exact), 25)
        for name in exact:
            self.assertEqual(first[name]["value"], second[name]["value"],
                             name)

    def test_end_to_end_metrics_declared(self):
        for workload in ("read_mostly", "durable_commit"):
            self.fixed_run(workload, 0)


if __name__ == "__main__":
    unittest.main()
