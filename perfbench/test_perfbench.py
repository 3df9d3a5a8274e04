"""Self-tests of the benchmark's own logic; they run no workload.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import dataclasses
import json
import signal
import time
import unittest
from pathlib import Path

import pace
import run
import spans
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def passing_outcome() -> tuple[workloads.Workload, workloads.Outcome]:
    reports = [[{"relation": "su11-raising", "status": "ok"}] * 3, [{"relation": "x", "status": "ok"}]]
    outcome = workloads.Outcome(exit_codes=[0, 0], reports=reports, checks=[3, 1], canonical="{}")
    workload = workloads.Workload("w", workloads.run_monomial_sweeps, (3, 1), outcome.digest, True)
    return workload, outcome


def sample(problems: list[str], mode: str = "plain", wall_s: float = 2.0) -> dict:
    return {"mode": mode, "problems": problems, "wall_s": wall_s, "cpu_s": 1.5,
            "wall_own_s": 3.0, "peak_rss_kb": 2048, "setup_s": 0.1}


class SelfTime(unittest.TestCase):
    def test_nested_span_tree(self):
        t = spans.Tracer()
        root = t.record("bench", 0.0, 10.0, -1)
        cli = t.record("cli", 1.0, 9.0, root)
        sweep = t.record("relations.sweep", 2.0, 8.0, cli)
        t.record("linalg.matmul", 3.0, 4.0, sweep)
        second = t.record("linalg.matmul", 5.0, 7.0, sweep)
        t.record("operators.apply", 5.5, 6.0, second)
        seconds, calls = t.self_times()
        self.assertEqual(seconds["bench"], 2.0)
        self.assertEqual(seconds["cli"], 2.0)
        self.assertEqual(seconds["relations.sweep"], 3.0)
        self.assertEqual(seconds["linalg.matmul"], 2.5)
        self.assertEqual(seconds["operators.apply"], 0.5)
        self.assertEqual(calls["linalg.matmul"], 2)
        self.assertEqual(sum(seconds.values()), 10.0)

    def test_begin_finish_nests_under_open_span(self):
        t = spans.Tracer()
        outer = t.begin(t.ids["cli"])
        inner = t.begin(t.ids["linalg.rank"])
        t.finish(inner)
        t.finish(outer)
        self.assertEqual(list(t.parent), [-1, outer])
        seconds, _ = t.self_times()
        self.assertAlmostEqual(seconds["cli"] + seconds["linalg.rank"], t.end[outer] - t.start[outer])

    def test_every_per_layer_metric_is_produced(self):
        produced = set(spans.layer_metrics(spans.Tracer()))
        produced |= {"report.checks", "report.failed", "cli.output_bytes", "trace.overhead_s"}
        for metric in SPEC["per_layer"]:
            if not metric["name"].startswith("relations.checks."):
                self.assertIn(metric["name"], produced)


class Gate(unittest.TestCase):
    def test_passing_outcome_has_no_problems(self):
        workload, outcome = passing_outcome()
        self.assertEqual(workloads.problems(workload, 7, outcome), [])

    def test_wrong_expected_count_fails(self):
        workload, outcome = passing_outcome()
        workload = dataclasses.replace(workload, expected_checks=(3, 2))
        self.assertTrue(workloads.problems(workload, 7, outcome))

    def test_wrong_digest_fails(self):
        workload, outcome = passing_outcome()
        workload = dataclasses.replace(workload, expected_sha256="0" * 64)
        self.assertTrue(workloads.problems(workload, 7, outcome))

    def test_seed_bound_digest_is_checked_at_default_seed_only(self):
        workload, outcome = passing_outcome()
        workload = dataclasses.replace(workload, expected_sha256="0" * 64, digest_every_seed=False)
        self.assertTrue(workloads.problems(workload, workloads.DEFAULT_SEED, outcome))
        self.assertEqual(workloads.problems(workload, workloads.DEFAULT_SEED + 1, outcome), [])

    def test_empty_report_fails(self):
        outcome = workloads.Outcome(exit_codes=[0], reports=[[]], checks=[0], canonical="[]")
        workload = workloads.Workload("w", workloads.run_racah_sweep, (0,), outcome.digest, True)
        self.assertIn("checked nothing", workloads.problems(workload, 7, outcome))

    def test_failed_entry_or_exit_code_fails(self):
        workload, outcome = passing_outcome()
        outcome.reports[1] = [{"relation": "x", "status": "fail"}]
        outcome.exit_codes[1] = 1
        self.assertEqual(len(workloads.problems(workload, 7, outcome)), 2)

    def test_failed_run_is_counted_and_not_timed(self):
        measured = {"setups": [0.1], "samples": [sample([]), sample(["checked nothing"], wall_s=99.0)]}
        result = run.summarize(SPEC, measured, trace=False)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))
        self.assertEqual(result["metrics"]["wall_s"]["value"], 2.0)
        self.assertEqual(result["metrics"]["ok_frac"]["value"], 0.5)


class Pace(unittest.TestCase):
    def test_own_time_excludes_chunks_and_scales_to_nominal(self):
        paced = pace.Paced(wall_own_s=3.0, cpu_own_s=2.0, chunks=10, chunk_total_s=0.01,
                           chunk_wall_s=2 * pace.CHUNK_NOMINAL_S,
                           chunk_cpu_s=4 * pace.CHUNK_NOMINAL_S)
        self.assertAlmostEqual(paced.wall_s, 1.5)
        self.assertAlmostEqual(paced.cpu_s, 0.5)

    def test_sampler_times_chunks_during_a_span(self):
        sampler = pace.PaceSampler()
        sampler.start()
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
        paced = sampler.stop()
        self.assertGreater(paced.chunks, 1)
        self.assertAlmostEqual(paced.wall_own_s + paced.chunk_total_s, 0.1, delta=0.02)
        self.assertEqual(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)

    def test_short_span_still_gets_a_pace(self):
        sampler = pace.PaceSampler()
        sampler.start()
        paced = sampler.stop()
        self.assertEqual((paced.chunks, paced.chunk_total_s), (1, 0))
        self.assertGreater(paced.chunk_wall_s, 0)


if __name__ == "__main__":
    unittest.main()
