#!/usr/bin/env python3
"""Tests of the perfbench benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the driver through run.py (into $CARGO_TARGET_DIR, default
.bench_build) and checks:
  - the C++ self-test (a flipped TimeLog bit changes the digest; the seed
    changes job seeds but not the op list or the op count);
  - every metric name matches [A-Za-z0-9_.-]+ and the driver's metric
    table is exactly the one in BENCHMARK.json, units included;
  - a short run prints every listed metric with its unit, traced and not;
  - without the repository's sources the benchmark exits non-zero and
    prints no result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args, **kw):
    return subprocess.run(RUN + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=900, **kw)


class PerfbenchTest(unittest.TestCase):
    def test_selftest(self):
        r = run(["--selftest"])
        self.assertEqual(r.returncode, 0, r.stdout)
        self.assertIn("all checks passed", r.stdout)

    def test_metric_names_and_units_match_benchmark_json(self):
        r = run(["--list-metrics"])
        self.assertEqual(r.returncode, 0)
        printed = {"end_to_end": {}, "per_layer": {}}
        for line in r.stdout.splitlines():
            kind, name, unit = line.split()
            printed[kind][name] = unit
        for kind in printed:
            listed = {m["name"]: m["unit"] for m in spec()[kind]}
            self.assertEqual(printed[kind], listed, kind)
            for name in listed:
                self.assertRegex(name, NAME)

    def test_short_run_prints_every_metric_with_its_unit(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            r = run(["--workload", "destripe", "--seed", "11", "--seconds",
                     "1", "--trace", str(trace)])
            self.assertEqual(r.returncode, 0, r.stdout)
            result = json.loads(r.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], r.stdout)
            self.assertGreaterEqual(result["attempted"], 1)
            listed = {m["name"]: m["unit"] for m in spec()[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, listed)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "destripe",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=170)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout, "")


if __name__ == "__main__":
    unittest.main()
