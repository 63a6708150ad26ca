#!/usr/bin/env python3
"""Self-tests of the repo benchmark, at the tiny scale (seconds per run).

    python3 perfbench/test_perfbench.py        # from the checkout root

Builds like run.py does (into .bench_build/) and checks that:
  * every workload prints every end-to-end metric untraced and every
    per-layer metric traced, each with the unit BENCHMARK.json gives it;
  * the quality metrics and the verdict digest repeat across two runs with
    one seed, and across 1 vs 3 scoring shards;
  * a second seed changes the paced traffic and the saturate pool digests;
  * without the gansec sources the benchmark fails without a result line.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's entry point)

QUALITY = ["integrity_recall", "availability_recall", "false_alarm_frac",
           "leak_acc"]


def bench(workload, seed=3, trace=0, shards=3, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace), "--scale", "tiny", "--shards", str(shards)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300, check=False)
    if proc.returncode != 0:
        raise AssertionError("run.py failed:\n" + proc.stderr[-3000:])
    lines = proc.stdout.rstrip("\n").split("\n")
    notes = dict(line[2:].split(" ", 1) for line in lines[:-1]
                 if line.startswith("# "))
    return json.loads(lines[-1]), notes


class WorkloadMetrics(unittest.TestCase):
    def test_every_workload_prints_every_metric(self):
        spec = run.load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["serve-paced", "serve-saturate", "train"])
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                units = {m["name"]: m["unit"] for m in spec[kind]}
                with self.subTest(workload=workload, trace=trace):
                    result, _ = bench(workload, trace=trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(sorted(result["metrics"]),
                                     sorted(units))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], units[name])
                        self.assertIsInstance(metric["value"], (int, float))


class Determinism(unittest.TestCase):
    def test_quality_and_verdicts_repeat_across_runs_and_shards(self):
        runs = [bench("serve-paced", shards=3), bench("serve-paced", shards=3),
                bench("serve-paced", shards=1)]
        first_result, first_notes = runs[0]
        for result, notes in runs[1:]:
            for name in QUALITY:
                self.assertEqual(result["metrics"][name]["value"],
                                 first_result["metrics"][name]["value"])
            self.assertEqual(notes["verdict_digest"],
                             first_notes["verdict_digest"])

    def test_second_seed_changes_traffic(self):
        _, a = bench("serve-saturate", seed=3)
        _, b = bench("serve-saturate", seed=4)
        self.assertNotEqual(a["traffic_digest"], b["traffic_digest"])
        self.assertNotEqual(a["pool_digest"], b["pool_digest"])


class Packaging(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        bare = os.path.abspath(os.path.join(".bench_build", "bare-checkout"))
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.REPO_DIR, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
             "--workload", "train", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180, check=False)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
