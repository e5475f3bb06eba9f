#!/usr/bin/env python3
"""Self-tests of bench_delta.py's verdicts, snapshot gate and inputs, on
synthetic perfbench result lines (no build needed).

    python3 tools/tests/bench_delta_test.py
"""
import contextlib
import importlib.util
import io
import json
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
spec = importlib.util.spec_from_file_location(
    "bench_delta", HERE.parent / "bench_delta.py")
bench_delta = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_delta)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BASE = [10.0, 10.2, 9.9, 10.1, 9.8]  # quartile spread 0.03


def result_line(sim_s=10.0, correct=True, failed=0):
    """A run.py result line: every end-to-end metric 10.0 but sim_s."""
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {m["name"]: {"value": sim_s if m["name"] == "sim_s"
                                    else 10.0, "unit": m["unit"]}
                        for m in SPEC["end_to_end"]}}


def record(round_64k_sim_s):
    """A snapshot: one run per value, which only round_64k's sim_s takes."""
    workloads = {w: {"runs": [result_line(v if w == "round_64k" else 10.0)
                              for v in round_64k_sim_s]} for w in WORKLOADS}
    return {"workloads": workloads,
            "micro": {"BM_RingSuccessor/1024": {"ns_per_op": 100.0}}}


class BenchDelta(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = Path(self.tmp.name) / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    def main(self, *argv):
        """(exit code, stdout, SystemExit message or None)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                return bench_delta.main(list(argv)), out.getvalue(), None
            except SystemExit as e:
                return 1, out.getvalue(), str(e.code)

    def test_verdicts(self):
        wide = [5.0, 10.0, 15.0]  # quartile spread 1.0, past sim_s's bound
        for cur, base, want in (
                ([13.0, 13.2, 12.9], BASE, (1, "worse")),  # past both
                ([10.15, 10.1, 10.2], BASE, (0, "unchanged")),  # in spread
                ([11.1], BASE, (0, "unchanged")),  # past spread, in bound
                ([8.0, 7.9], BASE, (0, "better")),
                ([30.0], wide, (0, "unresolved")),
                ([4.0, 4.5], wide, (0, "better"))):  # beats every base run
            code, out, _ = self.main(
                "compare", self.write("BENCH_base.json", record(base)),
                self.write("BENCH_cur.json", record(cur)))
            verdicts = {l.split(" | ")[0][2:]: l.split(" | ")[-1][:-2]
                        for l in out.splitlines() if " | sim_s | " in l}
            self.assertEqual((code, verdicts["round_64k"]), want, cur)
            self.assertEqual(verdicts["churn_4k"], "unchanged")
        self.assertEqual(bench_delta.verdict([10.0] * 3, [5.0], 0.25,
                                             "higher")[0], "worse")

    def snapshot(self, line):
        micro = self.write("micro.json", {"benchmarks": [
            {"name": "BM_TracedRound/binary", "run_type": "iteration",
             "real_time": 1.5, "time_unit": "s", "trace_bytes": 2e7}]})
        out = Path(self.tmp.name) / "BENCH_new.json"
        with mock.patch.object(bench_delta, "run_perfbench", lambda *_: (
                'env {"cpu": "x"}\n' + json.dumps(line) + "\n")):
            code, _, message = self.main("snapshot", "--seeds", "1-2",
                                         "--micro", micro, "-o", str(out))
        return code, message, out

    def test_snapshot_writes_every_workload_and_seed(self):
        code, _, out = self.snapshot(result_line())
        self.assertEqual(code, 0)
        doc = json.loads(out.read_text())
        self.assertEqual(doc["seconds"], SPEC["run_seconds"])
        self.assertEqual(doc["env"], {"cpu": "x"})
        self.assertEqual(sorted(doc["workloads"]), sorted(WORKLOADS))
        churn = doc["workloads"]["churn_4k"]
        self.assertEqual([r["seed"] for r in churn["runs"]], [1, 2])
        self.assertEqual(churn["traced"]["seed"], 1)
        self.assertEqual(doc["micro"]["BM_TracedRound/binary"],
                         {"ns_per_op": 1.5e9, "trace_bytes": 2e7})

    def test_snapshot_rejects_incorrect_or_failed_runs(self):
        for line, text in ((result_line(correct=False), '"correct": false'),
                           (result_line(failed=3), '"failed": 3')):
            code, message, out = self.snapshot(line)
            self.assertEqual(code, 1)
            self.assertIn(text, message)
            self.assertFalse(out.exists())
        with self.assertRaises(SystemExit) as cm:
            bench_delta.parse_run("env {}\n  sim_s 1.0 s\n", "repair_4k")
        self.assertIn("repair_4k", str(cm.exception.code))

    def test_malformed_or_unknown_files_exit_naming_the_file(self):
        for name, doc in (("a.json", "{not json"),
                          ("gbench.json", {"benchmarks": []}),
                          ("run.json", {"workloads": {"x": {"runs": [{}]}}}),
                          ("micro.json", {"timed_rounds": [],
                                          "micro": {"BM_X": {"ns": 1}}})):
            path = self.write(name, doc)
            code, _, message = self.main("trajectory", path)
            self.assertEqual((code, path in message), (1, True), name)
        missing = str(Path(self.tmp.name) / "missing.json")
        self.assertIn(missing, self.main("trajectory", missing)[2])
        legacy = self.write("BENCH_old.json", {"timed_rounds": []})
        self.assertIn(legacy, self.main("compare", legacy, legacy)[2])
        not_gbench = self.write("m.json", record(BASE))
        code, _, message = self.main("snapshot", "--seeds", "1", "--micro",
                                     not_gbench, "-o", "unused.json")
        self.assertEqual((code, not_gbench in message), (1, True))

    def test_trajectory_reads_legacy_micro_maps(self):
        legacy = self.write("BENCH_pr10.json", {
            "timed_rounds": [{"nodes": 4096, "wall_seconds": 3.0}],
            "micro": {"BM_RingSuccessor/1024": {"ns_per_op": 125.0}}})
        code, out, _ = self.main("trajectory", legacy,
                                 self.write("BENCH_pr16.json",
                                            record([10.0, 11.0])))
        self.assertEqual(code, 0)
        self.assertIn("| BM_RingSuccessor/1024 | 125.0 | 100.0 | -20.0% |",
                      out)
        self.assertIn("| round_64k | sim_s | - | 10.5 |", out)
        for name in ("BENCH_baseline.json", "BENCH_pr10.json"):
            workloads, micro = bench_delta.load_record(str(ROOT / name))
            self.assertEqual((workloads, "BM_EngineThroughput/0" in micro),
                             (None, True))


if __name__ == "__main__":
    unittest.main()
