#!/usr/bin/env python3
"""Run one workload once per seed and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload churn_4k --seeds 1-10

A metric is steady when its spread, (Q3 - Q1) / median over the seeds,
stays below a third of its bound.  Runs are sequential.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

import run


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--out", help="append each run's result line here")
    args = parser.parse_args()
    spec = run.load_spec()
    results = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        line = json.loads(proc.stdout.splitlines()[-1])
        results.append(line)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    **line}) + "\n")
        print(f"seed {seed}: correct={line['correct']} " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()),
            flush=True)
    steady = all(r["correct"] for r in results)
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        spread = run.quartile_spread(values)
        ok = spread < m["bound"] / 3
        steady = steady and ok
        print(f"{m['name']:18} median {run.median(values):10.5g}  "
              f"spread {spread:6.3f}  bound {m['bound']:.3g}  "
              f"{'ok' if ok else 'NOT STEADY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
