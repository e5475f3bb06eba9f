#!/usr/bin/env python3
"""Snapshot, compare and chart the benchmark record (BENCH_*.json).

A record holds the result lines of perfbench/run.py (the benchmark that
BENCHMARK.json declares) and the google-benchmark JSON of
bench/micro_kernels; this script defines neither.  `snapshot` fails,
writing nothing, unless every run is "correct": true with "failed": 0.
`compare` exits non-zero only on a resolved "worse" (see verdict());
micro kernels are report-only.  `trajectory` reads only the micro maps of
the legacy records BENCH_baseline.json and BENCH_pr10.json, whose timed
rows changed meaning after they were taken.  A file that is not JSON or
not a record of the expected kind exits non-zero naming the file.
"""

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "perfbench" / "run.py"

_spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
# google-benchmark values kept beside ns/op in a record's micro map.
MICRO_COUNTERS = ("items_per_second", "trace_bytes")


def fail(message):
    raise SystemExit(f"bench_delta: {message}")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")


def micro_of_gbench(path):
    """{kernel: {"ns_per_op": ..., counters...}} of one micro_kernels run."""
    doc = load(path)
    try:
        return {b["name"]: {"ns_per_op": b["real_time"]
                            * TIME_UNIT_NS[b.get("time_unit", "ns")],
                            **{k: b[k] for k in MICRO_COUNTERS if k in b}}
                for b in doc["benchmarks"] if b.get("run_type") != "aggregate"}
    except (KeyError, TypeError, AttributeError) as e:
        fail(f"{path} is not google-benchmark JSON: {e!r}")


def load_record(path):
    """(workloads, micro) of a record; workloads is None for a legacy one."""
    doc = load(path)
    if not isinstance(doc, dict) or not ("workloads" in doc
                                         or "timed_rounds" in doc):
        fail(f"{path} is not a benchmark record (no \"workloads\" map, "
             "nor a legacy \"timed_rounds\" list)")
    workloads, micro = doc.get("workloads"), doc.get("micro", {})
    try:
        for w in (workloads or {}).values():
            for r in w["runs"]:
                for m in r["metrics"].values():
                    float(m["value"])
        for m in micro.values():
            float(m["ns_per_op"])
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        fail(f"{path} is a malformed benchmark record: {e!r}")
    return workloads, micro


def parse_seeds(text):
    """'1-3' -> [1, 2, 3]; '4242' -> [4242]."""
    lo, _, hi = text.partition("-")
    try:
        seeds = list(range(int(lo), int(hi or lo) + 1))
    except ValueError:
        seeds = []
    if not seeds or seeds[0] < 0:
        fail(f"--seeds {text!r} is not a seed or a range of seeds")
    return seeds


def run_perfbench(workload, seed, seconds, trace):
    """perfbench/run.py's standard output, echoed for the job log."""
    cmd = [sys.executable, str(RUN_PY), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    print(proc.stdout, end="", flush=True)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    return proc.stdout


def parse_run(stdout, what):
    """(env stamp, result line) of one run, which must be correct with no
    failed operation."""
    lines = stdout.strip().splitlines()
    try:
        env = next((json.loads(l[len("env "):]) for l in lines
                    if l.startswith("env ")), None)
        result = json.loads(lines[-1])
        correct, failed = result["correct"], result["failed"]
        if not isinstance(result["metrics"], dict):
            raise TypeError("metrics is not a map")
    except (IndexError, ValueError, KeyError, TypeError):
        fail(f"{what} printed no perfbench result line")
    if correct is not True or failed != 0:
        fail(f"{what} is not correct: \"correct\": {json.dumps(correct)}, "
             f"\"failed\": {failed}")
    return env, result


def snapshot(seeds, seconds, micro_path, out_path):
    micro = micro_of_gbench(micro_path)
    env, workloads = None, {}
    for w in (w["name"] for w in run.load_spec()["workloads"]):
        runs = []
        for seed, trace in [(s, 0) for s in seeds] + [(seeds[0], 1)]:
            what = f"{w} seed {seed} --trace {trace}"
            print(f"== {what}", file=sys.stderr, flush=True)
            run_env, result = parse_run(
                run_perfbench(w, seed, seconds, trace), what)
            env = env or run_env
            runs.append({"seed": seed, **result})
        workloads[w] = {"runs": runs[:-1], "traced": runs[-1]}
    with open(out_path, "w") as f:
        json.dump({"seeds": seeds, "seconds": seconds, "env": env,
                   "workloads": workloads, "micro": micro},
                  f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def verdict(base, cur, bound, better):
    """(verdict, spread) of the `cur` runs against the `base` runs.

    The change is the median's move as a share of the base median;
    `spread` is the base runs' quartile spread.  A spread wider than the
    bound leaves the change "unresolved" unless every current run beats
    every base run.  Otherwise a worse move past the bound (hence past the
    spread too) is "worse", a better move past the spread "better", and
    anything else "unchanged".
    """
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (run.median(cur) / run.median(base) - 1.0)
    spread = run.quartile_spread(base) if len(base) > 1 else 0.0
    if spread > bound:
        beats_all = max(sign * v for v in cur) < min(sign * v for v in base)
        return ("better" if beats_all else "unresolved"), spread
    if change > bound:
        return "worse", spread
    return ("better" if -change > spread else "unchanged"), spread


def metric_values(workloads, workload, metric):
    runs = (workloads or {}).get(workload, {}).get("runs", [])
    return [r["metrics"][metric]["value"] for r in runs
            if metric in r["metrics"]]


def median_cell(values):
    return f"{run.median(values):.4g}" if values else "-"


def label(path):
    """BENCH_pr10.json -> pr10."""
    return Path(path).name.removesuffix(".json").removeprefix("BENCH_")


def fmt_change(values):
    """The last known value's change from the first ("" with fewer than
    two; missing values are None or 0)."""
    known = [v for v in values if v]
    return (f"{(known[-1] / known[0] - 1) * 100:+.1f}%" if len(known) > 1
            else "")


def micro_table(records, labels):
    print("\n## Micro kernels (ns/op; report-only)\n")
    print("| kernel | " + " | ".join(labels) + " | net |")
    print("|---" * (len(labels) + 2) + "|")
    for name in sorted({n for _, micro in records for n in micro}):
        cells = [micro.get(name, {}).get("ns_per_op") for _, micro in records]
        print(f"| {name} | " + " | ".join(
            "-" if v is None else f"{v:.1f}" for v in cells)
            + f" | {fmt_change(cells)} |")


def compare(base_path, cur_path):
    records = [load_record(p) for p in (base_path, cur_path)]
    for path, (workloads, _) in zip((base_path, cur_path), records):
        if workloads is None:
            fail(f"{path} is a legacy record with no perfbench runs")
    spec = run.load_spec()
    worse = []
    print(f"## End-to-end medians: {label(cur_path)} vs {label(base_path)}\n")
    print("| workload | metric | baseline | current | change | "
          "baseline spread | bound | verdict |")
    print("|---" * 8 + "|")
    for w in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            b, c = (metric_values(r, w, m["name"]) for r, _ in records)
            v, spread = (verdict(b, c, m["bound"], m["better"]) if b and c
                         else ("unresolved", None))
            if v == "worse":
                worse.append(f"{w} {m['name']}")
            print(f"| {w} | {m['name']} | {median_cell(b)} | "
                  f"{median_cell(c)} | "
                  f"{fmt_change([run.median(b), run.median(c)])} | "
                  f"{'-' if spread is None else f'{spread:.3g}'} | "
                  f"{m['bound']} | {v} |")
    micro_table(records, [label(base_path), label(cur_path)])
    if worse:
        print(f"\nWORSE: {', '.join(worse)}", file=sys.stderr)
    return 1 if worse else 0


def trajectory(paths):
    records = [load_record(p) for p in paths]
    labels = [label(p) for p in paths]
    print("## End-to-end medians (legacy records: -)\n")
    print("| workload | metric | " + " | ".join(labels) + " |")
    print("|---" * (len(labels) + 2) + "|")
    spec = run.load_spec()
    for w in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            print(f"| {w} | {m['name']} | " + " | ".join(
                median_cell(metric_values(r, w, m["name"]))
                for r, _ in records) + " |")
    micro_table(records, labels)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("snapshot")
    s.add_argument("--seeds", required=True, help="e.g. 1-3 or 4242")
    s.add_argument("--seconds", type=float,
                   help="per run (default: BENCHMARK.json's run_seconds)")
    s.add_argument("--micro", required=True, help="micro_kernels JSON")
    s.add_argument("-o", "--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("baseline")
    c.add_argument("current")
    sub.add_parser("trajectory").add_argument("records", nargs="+",
                                              help="oldest first")
    args = ap.parse_args(argv)
    if args.cmd == "snapshot":
        seconds = args.seconds or run.load_spec()["run_seconds"]
        return snapshot(parse_seeds(args.seeds), seconds, args.micro, args.out)
    if args.cmd == "compare":
        return compare(args.baseline, args.current)
    return trajectory(args.records)


if __name__ == "__main__":
    sys.exit(main())
