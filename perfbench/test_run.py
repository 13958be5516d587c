#!/usr/bin/env python3
"""Tests of run.py's report parsing and metric naming.

usage: python3 perfbench/test_run.py

Pure-Python: needs no build and starts no process.
"""

import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

EXPOSITION = """\
# HELP colossal_build_info Build and runtime identity of this serving process
# TYPE colossal_build_info gauge
colossal_build_info{simd="avx2",compiler="gcc 12.2.0"} 1
# TYPE colossal_phase_fusion_seconds summary
colossal_phase_fusion_seconds{quantile="0.5"} 0.134217728
colossal_phase_fusion_seconds_sum 0.3
colossal_phase_fusion_seconds_count 2
colossal_phase_stitch_seconds_sum 0
colossal_phase_stitch_seconds_count 0
colossal_responses_mined_total 41
"""


class CatalogueTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_catalogue()

    def test_top_level_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertEqual(self.spec["command"][1], "perfbench/run.py")

    def test_names_are_valid_and_unique(self):
        names = [m["name"] for m in self.spec["end_to_end"] +
                 self.spec["per_layer"]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))

    def test_workloads_match_run_py(self):
        self.assertEqual({w["name"] for w in self.spec["workloads"]},
                         set(run.WORKLOADS))

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for bound in bounds.values():
            self.assertGreater(bound, 0)
            self.assertLessEqual(bound, 0.25)

    def test_every_scraped_phase_has_a_metric(self):
        per_layer = {m["name"] for m in self.spec["per_layer"]}
        for phase in run.TRACE_PHASES:
            self.assertIn(f"obs.phase_{phase}_ms", per_layer)


class ResultLineTest(unittest.TestCase):
    CATALOGUE = [{"name": "p50_ms", "unit": "ms"},
                 {"name": "setup_s", "unit": "s"}]

    def test_every_metric_with_its_unit(self):
        line = run.result_line(True, 10, 0, {"p50_ms": 1.5, "setup_s": 0.25,
                                             "extra": 3}, self.CATALOGUE)
        result = json.loads(line)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(result["metrics"],
                         {"p50_ms": {"value": 1.5, "unit": "ms"},
                          "setup_s": {"value": 0.25, "unit": "s"}})
        self.assertIs(result["correct"], True)

    def test_missing_metric_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, {"p50_ms": 1.0}, self.CATALOGUE)


class ParsingTest(unittest.TestCase):
    def test_exposition(self):
        values = run.parse_exposition(EXPOSITION)
        self.assertEqual(values["colossal_responses_mined_total"], 41)
        self.assertEqual(
            values['colossal_phase_fusion_seconds{quantile="0.5"}'],
            0.134217728)
        self.assertNotIn("# TYPE", "".join(values))

    def test_build_info(self):
        self.assertEqual(run.build_info(EXPOSITION),
                         {"simd": "avx2", "compiler": "gcc 12.2.0"})
        self.assertEqual(run.build_info("colossal_up 1\n"), {})

    def test_phase_means(self):
        means = run.phase_means_ms({}, run.parse_exposition(EXPOSITION))
        self.assertEqual(set(means),
                         {f"obs.phase_{p}_ms" for p in run.TRACE_PHASES})
        self.assertAlmostEqual(means["obs.phase_fusion_ms"], 150.0)
        self.assertEqual(means["obs.phase_stitch_ms"], 0.0)
        self.assertEqual(means["obs.phase_parse_ms"], 0.0)

    def test_phase_means_cover_only_the_window(self):
        primed = {"colossal_phase_fusion_seconds_sum": 0.1,
                  "colossal_phase_fusion_seconds_count": 1,
                  "colossal_phase_stitch_seconds_sum": 0.0,
                  "colossal_phase_stitch_seconds_count": 0}
        means = run.phase_means_ms(primed, run.parse_exposition(EXPOSITION))
        # One window request took 0.3 - 0.1 s of fusion.
        self.assertAlmostEqual(means["obs.phase_fusion_ms"], 200.0)
        unchanged = run.phase_means_ms(primed, primed)
        self.assertEqual(unchanged["obs.phase_fusion_ms"], 0.0)

    def test_last_json_line(self):
        text = 'noise\n{"a": 1}\nmore noise\n{"b": 2}\n\n'
        self.assertEqual(run.last_json_line(text), {"b": 2})
        with self.assertRaises(run.BenchError):
            run.last_json_line("no json here\n")


class RequestLinesTest(unittest.TestCase):
    def test_cold_lines_are_distinct_and_never_the_priming_one(self):
        for workload in ("all_cold", "replace_shard_cold"):
            prime, timed = run.request_lines(workload, 7, 2)
            self.assertEqual(len(prime), 1)
            self.assertEqual(len(timed), 2 * run.COLD_LINES_PER_SECOND)
            self.assertEqual(len(set(timed)), len(timed))
            self.assertNotIn(prime[0], timed)

    def test_same_seed_same_lines(self):
        self.assertEqual(run.request_lines("all_cold", 3, 1),
                         run.request_lines("all_cold", 3, 1))
        self.assertNotEqual(run.request_lines("all_cold", 3, 1),
                            run.request_lines("all_cold", 4, 1))

    def test_warm_mix(self):
        prime, timed = run.request_lines("warm_hits", 5, 20)
        self.assertEqual(prime, timed)
        self.assertEqual(len(set(timed)), 16)
        self.assertEqual(sum("all.snap" in line for line in timed), 4)
        self.assertEqual(sum("rep.snap" in line for line in timed), 4)
        self.assertEqual(sum("diag.fimi" in line for line in timed), 8)

    def test_sharded_lines_name_the_manifest(self):
        _, timed = run.request_lines("replace_shard_cold", 1, 1)
        self.assertTrue(all("rep.manifest --shards exact" in line
                            for line in timed))


if __name__ == "__main__":
    unittest.main()
