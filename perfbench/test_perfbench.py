"""Unit tests for perfbench's own logic: exact percentiles, the
open-loop schedule, span self time, the direct-run gate's bookkeeping,
provenance comparison and the agreement between BENCHMARK.json and the metrics the runner prints.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import unittest

import compare
import provenance
import schedule
import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_is_a_sample(self):
        values = list(range(1, 11))
        self.assertEqual(stats.percentile(values, 50), 5)
        self.assertEqual(stats.percentile(values, 90), 9)
        self.assertEqual(stats.percentile(values, 100), 10)
        self.assertEqual(stats.percentile(values, 1), 1)

    def test_order_and_duplicates(self):
        self.assertEqual(stats.percentile([3.0, 1.0, 2.0], 50), 2.0)
        self.assertEqual(stats.percentile([7, 7, 7, 1], 90), 7)
        self.assertEqual(stats.percentile([0.25], 90), 0.25)

    def test_p90_of_a_thousand(self):
        values = [float(v) for v in range(1000, 0, -1)]
        self.assertEqual(stats.percentile(values, 90), 900.0)
        self.assertEqual(stats.percentile(values, 99), 990.0)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 0)
        with self.assertRaises(ValueError):
            stats.percentile([1], 101)

    def test_summary_counts_samples(self):
        self.assertEqual(stats.summary([4, 1, 3, 2]), {"p50": 2, "p90": 4, "n": 4})
        self.assertEqual(stats.summary([])["n"], 0)

    def test_spread_uses_statistics_quartiles(self):
        values = [10.0, 11.0, 12.0, 9.0, 10.5, 10.2, 9.8, 10.1, 10.4, 9.9]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now
        self.slept = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


class OpenLoopTest(unittest.TestCase):
    def test_due_times_follow_the_rate(self):
        loop = schedule.OpenLoop(rate=20, seconds=3, start=5.0)
        self.assertEqual(loop.count, 60)
        self.assertAlmostEqual(loop.due(0), 5.0)
        self.assertAlmostEqual(loop.due(10), 5.5)

    def test_waits_until_due_when_early(self):
        clock = FakeClock(100.0)
        loop = schedule.OpenLoop(rate=10, seconds=1, clock=clock)
        due, lag = loop.wait_until_due(3, sleep=clock.sleep)
        self.assertAlmostEqual(due, 100.3)
        self.assertAlmostEqual(clock.slept[0], 0.3)
        self.assertEqual(lag, 0.0)

    def test_late_sends_keep_their_due_time(self):
        # A stall delays later operations: they are sent late, never
        # rescheduled, and their latency still counts from the due time.
        clock = FakeClock(100.0)
        loop = schedule.OpenLoop(rate=10, seconds=1, clock=clock)
        clock.now = 100.75
        due, lag = loop.wait_until_due(2, sleep=clock.sleep)
        self.assertEqual(clock.slept, [])
        self.assertAlmostEqual(due, 100.2)
        self.assertAlmostEqual(lag, 0.55)
        self.assertAlmostEqual(schedule.latency_from_due(due, 100.80), 0.6)

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            schedule.OpenLoop(rate=0, seconds=1)


class SpansTest(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        spans = workloads.Spans()
        root = spans.add("request", 0.0, 10.0)
        spans.add("a", 1.0, 4.0, root)
        spans.add("b", 3.0, 6.0, root)      # Overlaps a: covered once.
        spans.add("c", 9.0, 12.0, root)     # Sticks out: clipped to the root.
        totals = spans.self_times()
        self.assertAlmostEqual(totals["request"][0], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(totals["a"][0], 3.0)
        self.assertEqual(totals["request"][1], 1)


class AnswersTest(unittest.TestCase):
    def test_reports_and_rejections_become_verify_entries(self):
        result = workloads.Result()
        answers = workloads.Answers()
        answers.add(result, "a", {"fingerprint": "f1"}, {"state": "done", "report": "r"})
        answers.add(result, "a", {"fingerprint": "f1"}, {"state": "done", "report": "r"})
        answers.add(result, "b", {"fingerprint": "f2"},
                    {"state": "failed", "status_code": "FAILED_PRECONDITION",
                     "status_message": "every candidate K failed"})
        jobs = {job["line"]: job for job in answers.jobs(result)}
        self.assertEqual(jobs["a"], {"line": "a", "fingerprint": "f1", "reports": ["r"]})
        self.assertEqual(jobs["b"]["rejection"], {"status_code": "FAILED_PRECONDITION",
                                                  "status_message": "every candidate K failed"})
        self.assertEqual(result.failed, 0)

    def test_two_answers_for_one_line_fail_the_gate(self):
        result = workloads.Result()
        answers = workloads.Answers()
        answers.add(result, "a", {"fingerprint": "f1"}, {"state": "done", "report": "r"})
        answers.add(result, "a", {"fingerprint": "f1"},
                    {"state": "failed", "status_code": "INTERNAL", "status_message": "m"})
        answers.jobs(result)
        self.assertEqual(result.failed, 1)

    def test_only_session_errors_count_as_answers(self):
        submitted = {"ok": True}
        self.assertTrue(workloads.job_answered(
            submitted, {"ok": True, "state": "failed", "status_code": "INTERNAL"}))
        self.assertFalse(workloads.job_answered(submitted, {"ok": True, "state": "cancelled"}))
        self.assertFalse(workloads.job_answered({"ok": False}, None))


def prov(**overrides):
    block = {"git_sha": None, "source_sha256": "s1", "bench_sha256": "b1",
             "build_type": "Release", "compiler": "c++ 12", "nproc": 4,
             "cpu_model": "cpu", "isa": ["avx2"], "simd_dispatch": "auto",
             "simd_active": "avx2", "tmp_fs": "ext4", "run_seconds": 15}
    block.update(overrides)
    return block


class ProvenanceTest(unittest.TestCase):
    def test_same_setup_compares(self):
        self.assertIsNone(provenance.comparable([prov(), prov()], [prov(source_sha256="s2")]))

    def test_refuses_different_machine_or_build(self):
        for key, value in (("nproc", 1), ("build_type", "Debug"), ("simd_dispatch", "scalar"),
                           ("tmp_fs", "tmpfs"), ("bench_sha256", "b2"), ("run_seconds", 10)):
            reason = provenance.comparable([prov()], [prov(**{key: value})])
            self.assertIsNotNone(reason, key)
            self.assertIn(key, reason)

    def test_refuses_mixed_code_within_a_side(self):
        reason = provenance.comparable([prov(), prov(source_sha256="s2")], [prov()])
        self.assertIn("mixes code versions", reason)

    def test_compare_script_refuses(self):
        with tempfile.TemporaryDirectory(dir=HERE) as directory:
            paths = []
            for nproc in (1, 4):
                path = os.path.join(directory, "r%d.json" % nproc)
                with open(path, "w") as handle:
                    json.dump({"workload": "w", "trace": 0, "provenance": prov(nproc=nproc),
                               "end_to_end": {"m": 1.0}}, handle)
                paths.append(path)
            argv = sys.argv
            try:
                sys.argv = ["compare.py", paths[0], "--against", paths[1]]
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    self.assertEqual(compare.main(), 2)
                self.assertIn("nproc", err.getvalue())
                sys.argv = ["compare.py", paths[1], "--against", paths[1]]
                with contextlib.redirect_stdout(io.StringIO()):
                    self.assertEqual(compare.main(), 0)
            finally:
                sys.argv = argv

    def test_summary_reports_median_quartiles_and_overhead(self):
        records = [{"workload": "w", "trace": t, "provenance": prov(),
                    "end_to_end": {"m": v}} for t, v in
                   ((0, 1.0), (0, 2.0), (0, 3.0), (1, 4.0), (1, 4.0))]
        text = "\n".join(compare.summary_lines(records))
        self.assertIn("median            2", text)
        self.assertIn("runs=3", text)
        self.assertIn("tracing overhead", text)
        self.assertIn("+2", text)

    def test_filesystem_type_of_root(self):
        self.assertIsNotNone(provenance.filesystem_type("/"))


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
            self.spec = json.load(handle)

    def test_metrics_match_the_runner(self):
        e2e = {m["name"]: (m["unit"], m["better"]) for m in self.spec["end_to_end"]}
        layers = {m["name"]: (m["unit"], m["better"]) for m in self.spec["per_layer"]}
        self.assertEqual(e2e, workloads.END_TO_END)
        self.assertEqual(layers, workloads.PER_LAYER)

    def test_workloads_exist(self):
        for workload in self.spec["workloads"]:
            self.assertIn(workload["name"], workloads.WORKLOADS)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


if __name__ == "__main__":
    unittest.main()
