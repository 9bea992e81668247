"""Tests of the benchmark's own code (drepbench/run.py).

    python3 -m unittest discover -s drepbench/tests -v

The emission test at the bottom runs the real pipeline binary on every
workload (about a minute); it is skipped until a benchmark run has built
the binary.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402


SPEC = run.load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond_the_percentile(self):
        # Percentiles are in hundredths of a percent: 9900 is p99.
        self.assertIsNone(run.tail_percentile(1))
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 5000)
        self.assertEqual(run.tail_percentile(99), 5000)
        self.assertEqual(run.tail_percentile(100), 9000)
        self.assertEqual(run.tail_percentile(999), 9000)
        self.assertEqual(run.tail_percentile(1000), 9900)
        self.assertEqual(run.tail_percentile(10000), 9990)
        self.assertEqual(run.tail_percentile(100000), 9999)

    def test_nearest_rank_percentile(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(run.percentile(samples, 5000), 50)
        self.assertEqual(run.percentile(samples, 9000), 90)
        self.assertEqual(run.percentile(samples, 10000), 100)
        self.assertEqual(run.percentile([7.0], 9900), 7.0)
        with self.assertRaises(ValueError):
            run.percentile([], 5000)

    def test_summary_reports_median_count_and_supported_tail(self):
        few = run.summarize([3.0, 1.0, 2.0])
        self.assertEqual(few["median"], 2.0)
        self.assertEqual(few["n"], 3)
        self.assertIsNone(few["tail_p"])
        self.assertIsNone(few["tail"])

        many = run.summarize([float(v) for v in range(200, 0, -1)])
        self.assertEqual(many["median"], 100.5)
        self.assertEqual(many["n"], 200)
        self.assertEqual(many["tail_p"], 90.0)
        self.assertEqual(many["tail"], 180.0)
        # At least ten samples lie beyond the reported tail.
        self.assertGreaterEqual(sum(v > many["tail"] for v in range(1, 201)), 10)


class FailureShare(unittest.TestCase):
    def counters(self, requests, reads, writes):
        return {"replay.requests": requests, "replay.failed_reads": reads,
                "replay.failed_writes": writes}

    def test_reads_and_writes_both_count_against_attempts(self):
        self.assertEqual(run.failure_share(self.counters(1000, 0, 0)), 0.0)
        self.assertEqual(run.failure_share(self.counters(1000, 3, 1)), 0.004)
        self.assertEqual(run.failure_share(self.counters(8, 8, 0)), 1.0)

    def test_rejects_impossible_accounting(self):
        with self.assertRaises(ValueError):
            run.failure_share(self.counters(0, 0, 0))
        with self.assertRaises(ValueError):
            run.failure_share(self.counters(10, 6, 5))


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent_only(self):
        spans = [
            {"name": "pipeline", "start": 0.0, "end": 10.0, "parent": -1},
            {"name": "plan", "start": 0.5, "end": 6.0, "parent": 0},
            {"name": "gra.seed", "start": 0.5, "end": 2.0, "parent": 1},
            {"name": "gra.evolve", "start": 2.0, "end": 5.5, "parent": 1},
            {"name": "replay", "start": 6.0, "end": 9.0, "parent": 0},
        ]
        self.assertEqual(run.self_times(spans), [1.5, 0.5, 1.5, 3.5, 3.0])


def fake_doc(traced_too):
    """A minimal pipeline document with every key run.py reads."""
    times = {key: 1.0 for key in (
        "pipeline_s", "plan_s", "retune_s", "replay_s", "serve_s",
        "serve_freeze_s", "serve_trace_s", "gra_seed_s", "gra_evolve_s",
        "agra_s")}
    times["serve_pass_s"] = [0.5, 0.5]
    counters = {"replay.requests": 100, "replay.messages": 150,
                "replay.local_reads": 40, "replay.remote_reads": 55,
                "replay.failed_reads": 0, "replay.failed_writes": 0,
                "serve.requests": 100, "gra.evaluations": 10,
                "gra.full_equiv_evals": 5}
    outputs = {key: 1.0 for key in run.PINNED_OUTPUTS}
    outputs.update(plan_savings_pct=20.0, retune_savings_pct=30.0)

    def rep(traced, warmup=False):
        return {"traced": traced, "warmup": warmup, "times": dict(times),
                "counters": dict(counters), "outputs": dict(outputs),
                "failures": []}

    reps = [rep(False, warmup=True), rep(False)]
    if traced_too:
        reps.append(rep(True))
    spans = []
    if traced_too:
        spans = [{"name": "pipeline", "start": 0.0, "end": 1.0, "parent": -1,
                  "run": 2}]
    setup = {"setup_s": 0.5, "generate_s": 0.2, "trace_s": 0.3,
             "sparse_build_s": 0.0, "input_hash": "00", "requests": 100}
    return {"setups": [setup, dict(setup)], "reps": reps, "spans": spans,
            "peak_rss_mb": 10.0,
            "probes": {"sra_s": 0.1, "sra_site_visits": 3,
                       "sra_benefit_evals": 9, "plan_threads1_s": 1.0,
                       "plan_threads4_s": 0.5, "plan_cost": 1.0,
                       "plan_hash": 1.0, "failures": []}}


class Checks(unittest.TestCase):
    def test_identical_repetitions_pass(self):
        self.assertEqual(run.check_outputs(fake_doc(True)), [])

    def test_traced_output_mismatch_fails(self):
        doc = fake_doc(True)
        doc["reps"][2]["outputs"]["plan_hash"] = "different"
        failures = run.check_outputs(doc)
        self.assertEqual(len(failures), 1)
        self.assertIn("traced", failures[0])
        self.assertIn("plan_hash", failures[0])

    def test_registry_plan_must_equal_the_pipeline_plan(self):
        doc = fake_doc(True)
        doc["probes"]["plan_hash"] = "different"
        failures = run.check_outputs(doc)
        self.assertEqual(len(failures), 1)
        self.assertIn("registry plan", failures[0])

    def test_program_check_failures_and_input_drift_are_reported(self):
        doc = fake_doc(False)
        doc["reps"][0]["failures"] = ["replayed data_traffic != Eq. 4 cost"]
        doc["setups"][1]["input_hash"] = "ff"
        failures = run.check_outputs(doc)
        self.assertEqual(len(failures), 2)

    def test_audit_armed_or_unoptimized_builds_are_refused(self):
        good = {"build_type": "Release", "ndebug": True, "drep_audit": False}
        run.check_provenance(good)
        for change in ({"drep_audit": True}, {"build_type": "Debug"},
                       {"ndebug": False}):
            with self.assertRaises(run.BenchError):
                run.check_provenance(dict(good, **change))


class Provenance(unittest.TestCase):
    def git(self, root, *args):
        subprocess.run(["git", "-C", root, "-c", "user.name=bench",
                        "-c", "user.email=bench@example.com"] + list(args),
                       check=True, capture_output=True)

    def test_stamp_is_taken_at_run_time_and_follows_the_work_tree(self):
        with tempfile.TemporaryDirectory() as root:
            self.assertEqual(run.git_describe(root), "unknown")
            os.makedirs(os.path.join(root, "src"))
            source = os.path.join(root, "src", "a.cpp")
            with open(source, "w") as handle:
                handle.write("int a;\n")
            self.git(root, "init", "-q")
            self.git(root, "add", ".")
            self.git(root, "commit", "-q", "-m", "one")
            clean = run.git_describe(root)
            digest = run.source_digest(root)
            self.assertNotIn("dirty", clean)

            with open(source, "a") as handle:
                handle.write("int b;\n")
            self.assertEqual(run.git_describe(root), clean + "-dirty")
            self.assertNotEqual(run.source_digest(root), digest)

            self.git(root, "commit", "-q", "-am", "two")
            committed = run.git_describe(root)
            self.assertNotIn("dirty", committed)
            self.assertNotEqual(committed, clean)

    def test_a_directory_inside_another_work_tree_is_unknown(self):
        with tempfile.TemporaryDirectory() as root:
            self.git(root, "init", "-q")
            inner = os.path.join(root, "checkout")
            os.makedirs(inner)
            self.assertEqual(run.git_describe(inner), "unknown")


class DeclaredMetrics(unittest.TestCase):
    def test_bounds_and_setup_time(self):
        for metric in SPEC["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_metric_builders_cover_exactly_the_declared_names(self):
        self.assertEqual(set(run.end_to_end(fake_doc(False))),
                         set(run.units_of(SPEC, "end_to_end")))
        self.assertEqual(set(run.per_layer(fake_doc(True))),
                         set(run.units_of(SPEC, "per_layer")))


@unittest.skipUnless(os.path.exists(os.path.join(run.build_dir(), "drepbench")),
                     "pipeline binary not built yet")
class EveryWorkloadEmitsEveryMetric(unittest.TestCase):
    def run_bench(self, workload, trace):
        out = subprocess.run(
            [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
             "--workload", workload, "--seed", "3", "--seconds", "0",
             "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=300)
        self.assertEqual(out.returncode, 0, out.stdout[-3000:] + out.stderr[-3000:])
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_each_workload(self):
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_bench(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics), {m["name"] for m in declared})
                    for metric in declared:
                        self.assertEqual(metrics[metric["name"]]["unit"],
                                         metric["unit"])
                        self.assertIsInstance(
                            metrics[metric["name"]]["value"], (int, float))


if __name__ == "__main__":
    unittest.main()
