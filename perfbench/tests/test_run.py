#!/usr/bin/env python3
"""Self-tests of run.py's arithmetic, checks and output schema.

    python3 perfbench/tests/test_run.py
"""
import importlib.util
import json
import re
import statistics
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
spec = importlib.util.spec_from_file_location("run", HERE.parent / "run.py")
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def rep(model, op_seconds=(1.0,), traced=False, checks=None, counts=None,
        sim_s=2.0, times=None, ops=None):
    return {"type": "rep", "traced": traced, "sim_s": sim_s,
            "times": times or {"sim.event_phase_s": sim_s},
            "model": model, "counts": counts or {},
            "checks": checks or {"ok": True},
            "ops": len(op_seconds) if ops is None else ops,
            "op_seconds": list(op_seconds)}


def setup(seconds, repeats=True):
    return {"type": "setup", "traced": False, "sim_s": 0.0,
            "times": {"a_s": seconds / 2, "b_s": seconds / 2}, "model": {},
            "counts": {}, "checks": {"setups_repeat": repeats}, "ops": 0,
            "op_seconds": []}


END = {"type": "end", "peak_rss_mb": 100.0, "build": "GNU 12, RelWithDebInfo"}
MODEL = {"completion_time": 57.0, "messages_per_node": 51.5, "sim.events": 1e6}


class Arithmetic(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [8, 8, 9, 9, 9, 10, 10, 10, 11, 13]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual((q1, q2, q3), (8.75, 9.5, 10.25))
        self.assertAlmostEqual(run.quartile_spread(values), 1.5 / 9.5)
        self.assertEqual(run.quartile_spread([5.0] * 10), 0.0)

    def test_failure_share(self):
        self.assertEqual(run.failure_share(72611, 64), 64 / 72611)
        self.assertEqual(run.failure_share(0, 0), 0.0)


class Aggregate(unittest.TestCase):
    def test_medians_of_setups_reps_and_rounds(self):
        lines = [setup(1.0), setup(3.0), setup(2.0),
                 rep(MODEL, (0.1, 0.3), sim_s=4.0),
                 rep(MODEL, (0.2, 0.4), sim_s=5.0), END]
        values, attempted, failed, failures, _ = run.aggregate(lines)
        self.assertEqual(values["setup_s"], 2.0)
        self.assertEqual(values["a_s"], 1.0)
        self.assertEqual(values["sim_s"], 4.5)
        self.assertEqual(values["round_s"], 0.25)
        self.assertEqual(values["peak_rss_mb"], 100.0)
        self.assertEqual(values["completion_time"], 57.0)
        self.assertEqual((attempted, failed, failures), (4, 0, []))

    def test_failed_check_fails_the_repetitions_operations(self):
        lines = [setup(1.0), rep(MODEL, (0.1, 0.2)),
                 rep(MODEL, (0.1, 0.2, 0.3), checks={"ok": False}), END]
        _, attempted, failed, failures, _ = run.aggregate(lines)
        self.assertEqual((attempted, failed), (5, 3))
        self.assertEqual(len(failures), 1)

    def test_unfinished_operation_is_attempted_and_failed(self):
        # Three rounds started, the third never reached done().
        lines = [setup(1.0), rep(MODEL, (0.1, 0.2)),
                 rep(MODEL, (0.1, 0.2), ops=3, checks={"rounds_done": False}),
                 END]
        values, attempted, failed, failures, _ = run.aggregate(lines)
        self.assertEqual((attempted, failed), (5, 3))
        self.assertIn("rounds_done", failures[0])
        self.assertAlmostEqual(values["round_s"], 0.15)

    def test_set_up_batch_that_does_not_repeat_fails_the_run(self):
        lines = [setup(1.0), setup(1.0, repeats=False), rep(MODEL), END]
        values, attempted, failed, failures, _ = run.aggregate(lines)
        self.assertEqual(failed, 0)
        self.assertIn("setups_repeat", failures[0])
        out = run.result(values, attempted, failed, failures,
                         run.load_spec()["end_to_end"])
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], out["attempted"])

    def test_modelled_results_must_repeat_exactly(self):
        drifted = dict(MODEL, completion_time=58.0)
        lines = [setup(1.0), rep(MODEL), rep(drifted), END]
        _, _, failed, failures, _ = run.aggregate(lines)
        self.assertEqual(failed, 1)
        self.assertIn("model differs", failures[0])

    def test_traced_repetitions_give_layers_and_overhead(self):
        times = {"sim.event_phase_s": 2.0, "prof.engine.event.self_s": 0.5,
                 "prof.round.self_s": 0.5}
        lines = [setup(1.0), rep(MODEL, sim_s=2.0),
                 rep(MODEL, traced=True, sim_s=2.2, times=times,
                     counts={"topo.latency_calls": 7.0}),
                 rep(MODEL, sim_s=2.0), END]
        values, _, failed, _, _ = run.aggregate(lines)
        self.assertEqual(failed, 0)
        self.assertAlmostEqual(values["trace.overhead_frac"], 0.1)
        self.assertEqual(values["prof.coverage_frac"], 0.5)
        self.assertEqual(values["sim.events_per_s"], 5e5)
        self.assertEqual(values["topo.latency_calls"], 7.0)


class Schema(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_benchmark_json_follows_its_limits(self):
        s = self.spec
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertEqual(sorted(w["name"] for w in s["workloads"]),
                         sorted(run.WORKLOADS))
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        names += [w["name"] for w in s["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertEqual(m["better"], "lower")
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup_s = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup_s["unit"], setup_s["bound"]),
                         ("s", max(m["bound"] for m in s["end_to_end"])))
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)

    def test_result_line_has_exactly_four_keys(self):
        lines = [setup(1.0), rep(MODEL), rep(MODEL), END]
        values, attempted, failed, failures, _ = run.aggregate(lines)
        out = run.result(values, attempted, failed, failures,
                         self.spec["end_to_end"])
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(set(out["metrics"]),
                         {m["name"] for m in self.spec["end_to_end"]})
        for m in out["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})
        json.loads(json.dumps(out))

    def test_unmeasured_end_to_end_metric_is_a_failure(self):
        model = {"completion_time": 57.0}  # no messages_per_node
        lines = [setup(1.0), rep(model), END]
        values, attempted, failed, failures, _ = run.aggregate(lines)
        out = run.result(values, attempted, failed, failures,
                         self.spec["end_to_end"])
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], out["attempted"])

    def test_unused_layer_reads_zero(self):
        lines = [setup(1.0), rep(MODEL), rep(MODEL, traced=True), END]
        values, attempted, failed, failures, _ = run.aggregate(lines)
        out = run.result(values, attempted, failed, failures,
                         self.spec["per_layer"])
        self.assertTrue(out["correct"])
        self.assertEqual(out["metrics"]["topo.oracle_fill_s"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
