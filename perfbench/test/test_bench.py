#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/test/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def bench(*args):
    """Run the benchmark; return (exit code, parsed last line or None)."""
    out = subprocess.run(RUN + list(args), capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return out.returncode, result


def run(workload, seed, trace=0, seconds=0):
    code, result = bench("--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(trace))
    assert code == 0 and result is not None and result["correct"], (workload, seed, result)
    return result


with open("BENCHMARK.json") as f:
    SPEC = json.load(f)


def bound(name):
    return next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == name)


class SlabSensitivity(unittest.TestCase):
    """The benchmark sees an allocation change, and only that."""

    def test_event_slab_moves_words_not_results(self):
        code, r = bench("--slab-check", "--seed", "1990")
        self.assertEqual(code, 0)
        off, on = r["off"], r["on"]
        moved = (off["minor_words_per_msg"] - on["minor_words_per_msg"]) / off["minor_words_per_msg"]
        self.assertGreater(moved, bound("minor_words_per_msg"), r)
        self.assertGreater(on["event_pool_hit_ratio"], 0)
        for key in ("sim_lat_p50_us", "sim_lat_p99_us", "sim_goodput_mbit_s", "delivered"):
            self.assertEqual(off[key], on[key], key)


class Seeds(unittest.TestCase):
    def sim(self, result):
        metrics = {k: v["value"] for k, v in result["metrics"].items() if k.startswith("sim_")}
        return metrics, result["attempted"], result["failed"]

    def test_same_seed_same_simulation(self):
        for workload in ("lossy-mix", "host-rmp"):
            self.assertEqual(self.sim(run(workload, 7)), self.sim(run(workload, 7)), workload)

    def test_held_out_seed_same_names(self):
        for trace in (0, 1):
            names = [set(run("lossy-mix", seed, trace)["metrics"]) for seed in (7, 90125)]
            self.assertEqual(names[0], names[1])
            wanted = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
            self.assertEqual(names[0], {m["name"] for m in wanted})

    def test_every_workload_reports_every_metric(self):
        for w in SPEC["workloads"]:
            names = set(run(w["name"], 11)["metrics"])
            self.assertEqual(names, {m["name"] for m in SPEC["end_to_end"]}, w["name"])


class Contract(unittest.TestCase):
    def test_fails_without_a_result_outside_a_checkout(self):
        bare = os.path.join(".bench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "host-rmp",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
