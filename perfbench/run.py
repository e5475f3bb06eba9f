#!/usr/bin/env python3
"""The p2plb benchmark: one workload per process, metrics and checks.

    python3 perfbench/run.py --workload round_64k --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the simulator's libraries from src/) into
.bench_build/perfbench on first use, runs the workload's C++ binary,
checks its outputs and prints the metrics BENCHMARK.json names as the
last line of standard output:

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

--trace 0 prints the end-to-end metrics, measured with no profiler or
tracer attached.  --trace 1 prints the per-layer metrics, taken from
traced repetitions that alternate with untraced ones.  See README.md.
"""
import argparse
import fcntl
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "p2plb_perfbench"

WORKLOADS = ["round_64k", "churn_4k", "repair_4k"]

CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def median(values):
    return statistics.median(values) if values else 0.0


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the
    median (statistics.quantiles(values, n=4), its default method)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def failure_share(attempted, failed):
    return failed / attempted if attempted else 0.0


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once and build the binary; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                      "p2plb_perfbench", "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                raise BenchError("build failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, trace):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} did not finish in {CHILD_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{workload} binary exited with {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


def aggregate(lines):
    """Turn the binary's set-up/repetition lines into every metric value,
    the operation counts and the failures found."""
    setups = [l for l in lines if l["type"] == "setup"]
    reps = [l for l in lines if l["type"] == "rep"]
    end = next(l for l in lines if l["type"] == "end")
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if not setups or not plain:
        raise BenchError("binary produced no set-up or repetition")

    failures = []
    for i, s in enumerate(setups):
        bad = sorted(name for name, ok in s["checks"].items() if not ok)
        if s["model"] != setups[0]["model"]:
            bad.append("model differs from set-up 0")
        if bad:
            failures.append(f"set-up {i}: " + ", ".join(bad))
    failed = 0
    for i, rep in enumerate(reps):
        bad = sorted(name for name, ok in rep["checks"].items() if not ok)
        # Every count and modelled result repeats exactly within a seed,
        # traced or not; traced-only counts repeat across traced reps.
        if rep["model"] != reps[0]["model"]:
            bad.append("model differs from repetition 0")
        if traced and rep["traced"] and rep["counts"] != traced[0]["counts"]:
            bad.append("counts differ from the first traced repetition")
        if bad:
            failures.append(f"repetition {i}: " + ", ".join(bad))
            failed += rep["ops"]
    attempted = sum(r["ops"] for r in reps)

    model = reps[0]["model"]
    values = {
        "setup_s": median([sum(s["times"].values()) for s in setups]),
        "sim_s": median([r["sim_s"] for r in plain]),
        "round_s": median([t for r in plain for t in r["op_seconds"]]),
        "peak_rss_mb": end["peak_rss_mb"],
    }
    values.update(setups[0]["model"])
    values.update(model)
    for key in {k for s in setups for k in s["times"]}:
        values[key] = median([s["times"].get(key, 0.0) for s in setups])
    if traced:
        for key in {k for r in traced for k in r["times"]}:
            values[key] = median([r["times"].get(key, 0.0) for r in traced])
        values.update(traced[0]["counts"])
        phase = values.get("sim.event_phase_s", 0.0)
        values["sim.events_per_s"] = model.get("sim.events", 0.0) / phase if phase else 0.0
        frames = sum(v for k, v in values.items()
                     if k.startswith("prof.") and k.endswith(".self_s"))
        values["prof.coverage_frac"] = frames / phase if phase else 0.0
        values["trace.overhead_frac"] = (
            median([r["sim_s"] for r in traced]) / values["sim_s"] - 1.0)
    return values, attempted, failed, failures, end


def select(metrics, values, failures):
    """The named metrics with units.  A layer the workload never calls
    reads 0; an end-to-end metric must be measured and positive."""
    out = {}
    for m in metrics:
        value = values.get(m["name"])
        if value is None and "bound" in m:
            failures.append(f"{m['name']} was not measured")
        value = float(value or 0.0)
        if not math.isfinite(value) or ("bound" in m and value <= 0.0):
            failures.append(f"{m['name']} = {value} is not a positive number")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def result(values, attempted, failed, failures, metrics):
    chosen = select(metrics, values, failures)
    if failures and failed == 0:
        failed = attempted
    return {"correct": not failures, "attempted": attempted,
            "failed": failed, "metrics": chosen}


def source_digest():
    """sha256 over src/ (paths and contents): names the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(build_stamp):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        commit = proc.stdout.strip() or None
    return {"build": build_stamp, "cpu": cpu, "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": source_digest()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        spec = load_spec()
        build()
        lines = run_binary(args.workload, args.seed, args.seconds, args.trace)
        values, attempted, failed, failures, end = aggregate(lines)
    except (BenchError, OSError, ValueError, KeyError, StopIteration) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = result(values, attempted, failed, failures, metrics)
    print("env " + json.dumps(environment(end["build"]), sort_keys=True))
    for name, m in out["metrics"].items():
        print(f"  {name:34} {m['value']:.6g} {m['unit']}")
    print(f"  operations: {out['attempted']} attempted, {out['failed']} failed "
          f"(share {failure_share(out['attempted'], out['failed']):.4g})")
    for f in failures:
        print(f"FAILED {f}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
