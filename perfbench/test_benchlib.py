"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The recomposition test builds the harness (as perfbench/run.py does) and
runs its traced recomposition of one small search against core::RunSearch.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402
import run  # noqa: E402


def step(qps, p99=10.0, errors=0, timeouts=0, sent=1000, achieved_share=1.0):
    return {"qps": qps, "offered_qps": qps, "achieved_qps": qps * achieved_share,
            "sent": sent, "errors": errors, "timeouts": timeouts,
            "status": {"p99_ms": p99}}


class PercentileRuleTest(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(benchlib.samples_beyond(1000, 0.99), 10)
        self.assertEqual(benchlib.samples_beyond(999, 0.99), 9)
        self.assertEqual(benchlib.samples_beyond(100, 0.9), 10)

    def test_highest_supported_percentile(self):
        self.assertEqual(benchlib.highest_supported_percentile(10000), 0.999)
        self.assertEqual(benchlib.highest_supported_percentile(1000), 0.99)
        self.assertEqual(benchlib.highest_supported_percentile(999), 0.95)
        self.assertEqual(benchlib.highest_supported_percentile(200), 0.95)
        self.assertEqual(benchlib.highest_supported_percentile(199), 0.9)
        self.assertEqual(benchlib.highest_supported_percentile(100), 0.9)
        self.assertEqual(benchlib.highest_supported_percentile(99), 0.5)
        self.assertIsNone(benchlib.highest_supported_percentile(19))

    def test_percentile_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(benchlib.percentile(samples, 0.5), 50)
        self.assertEqual(benchlib.percentile(samples, 0.9), 90)
        self.assertEqual(benchlib.percentile([7.0], 0.99), 7.0)


class LadderRuleTest(unittest.TestCase):
    def test_all_steps_pass(self):
        steps = [step(q) for q in (600, 300, 1200, 1800, 2400)]
        self.assertEqual(benchlib.ladder_max_qps(steps), 2400)

    def test_p99_limit(self):
        steps = [step(300), step(600), step(1200, p99=100.0), step(1800, p99=100.1),
                 step(2400, p99=500)]
        self.assertEqual(benchlib.ladder_max_qps(steps), 1200)

    def test_error_rate_limit(self):
        steps = [step(300), step(600, errors=6, timeouts=4), step(1200, timeouts=11)]
        self.assertEqual(benchlib.ladder_max_qps(steps), 600)

    def test_generator_must_keep_up(self):
        steps = [step(300), step(600, achieved_share=0.95), step(1200, achieved_share=0.94)]
        self.assertEqual(benchlib.ladder_max_qps(steps), 600)

    def test_failed_step_caps_higher_steps(self):
        steps = [step(300), step(600, p99=150), step(1200)]
        self.assertEqual(benchlib.ladder_max_qps(steps), 300)
        self.assertEqual(benchlib.ladder_max_qps([step(300, p99=150)]), 0)


class NameCharsetTest(unittest.TestCase):
    def test_charset(self):
        for good in ("setup_s", "op_p50_ms", "compress.LeGR.ms", "a-b.c_d", "9lives"):
            self.assertTrue(benchlib.valid_metric_name(good), good)
        for bad in ("", ".hidden", "_x", "with space", "a/b", "p99%", "é", "x" * 65):
            self.assertFalse(benchlib.valid_metric_name(bad), bad)

    def test_benchmark_json_names_and_units(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        for metric in spec["end_to_end"] + spec["per_layer"]:
            names.append(metric["name"])
            self.assertTrue(benchlib.valid_unit(metric["unit"]), metric)
        for name in names:
            self.assertTrue(benchlib.valid_metric_name(name), name)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))


class RecompositionTest(unittest.TestCase):
    def test_traced_recomposition_is_byte_identical(self):
        build_dir = os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        harness, _ = run.build(build_dir)
        workdir = os.path.join(build_dir, "selftest")
        os.makedirs(workdir, exist_ok=True)
        proc = subprocess.run(
            [harness, "recompose-selftest", "--seed", "5", "--seconds", "1",
             "--trace", "1", "--workdir", workdir],
            capture_output=True, text=True, timeout=300)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["identical"], proc.stderr[-2000:])
        self.assertEqual(result["top_spans"], 6)
        self.assertEqual(proc.returncode, 0)


if __name__ == "__main__":
    unittest.main()
