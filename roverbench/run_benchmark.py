#!/usr/bin/env python3
"""Builds and runs the Rover benchmark.

One workload (the form BENCHMARK.json's "command" uses); the last stdout
line is the result JSON:

  python3 roverbench/run_benchmark.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, one process each, one at a time; prints every metric by
name and unit and writes one results JSON (plus trace_<workload>.json files
when traced) into DIR:

  python3 roverbench/run_benchmark.py [--seed N] [--trace] [--out DIR]

The harness is built from source with CMake into $CARGO_TARGET_DIR
(default .bench_build) under the repository root.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds rover_bench; returns the binary path."""
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "rover_bench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit("build failed: " + " ".join(step))
    return os.path.join(build_dir, "rover_bench")


def run_workload(binary, workload, seed, seconds, trace, trace_out=None):
    """Runs one workload in its own process; returns (harness JSON, text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
        if trace_out:
            cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        raise SystemExit("%s exited %d without a result" % (workload, proc.returncode))
    return result, "\n".join(lines[:-1])


def finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def result_line(spec, result, trace):
    """The benchmark's result line: only the metrics BENCHMARK.json names."""
    section = "per_layer" if trace else "end_to_end"
    measured = result[section]
    metrics = {}
    correct = bool(result["correct"])
    for entry in spec[section]:
        metric = measured.get(entry["name"])
        if metric is None or not finite(metric["value"]):
            correct = False
            continue
        metrics[entry["name"]] = {"value": metric["value"], "unit": metric["unit"]}
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def print_table(result):
    print("%s (seed %d, %d reps, %d ops, sim digest %s)" % (
        result["workload"], result["seed"], result["reps"], result["attempted"],
        result["sim_digest"]))
    for section in ("end_to_end", "per_layer"):
        for name, metric in result[section].items():
            samples = metric.get("samples")
            note = "" if samples is None else "  n=%d" % samples
            if "beyond_p999" in metric:
                note += " beyond_p999=%d" % metric["beyond_p999"]
            value = metric["value"]
            shown = "%.6g" % value if finite(value) else "n/a"
            print("  %-34s %14s %-6s%s" % (name, shown, metric["unit"], note))
    for violation in result["violations"]:
        print("  VIOLATION: " + violation)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="directory for the results and trace JSON")
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
    binary = build()

    if args.workload is not None:
        trace_out = None
        if args.trace and args.out:
            os.makedirs(args.out, exist_ok=True)
            trace_out = os.path.join(args.out, "trace_%s.json" % args.workload)
        result, text = run_workload(binary, args.workload, args.seed, seconds, args.trace,
                                    trace_out)
        if text:
            print(text)
        line = result_line(spec, result, args.trace)
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    results = {}
    ok = True
    started = time.time()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    for workload in names:
        t0 = time.time()
        result, _ = run_workload(binary, workload, args.seed, seconds, False)
        if args.trace:
            trace_out = os.path.join(args.out, "trace_%s.json" % workload) if args.out else None
            traced, _ = run_workload(binary, workload, args.seed, seconds, True, trace_out)
            result["per_layer"] = traced["per_layer"]
            result["correct"] = result["correct"] and traced["correct"]
            result["violations"] += traced["violations"]
            if traced["sim_digest"] != result["sim_digest"]:
                result["correct"] = False
                result["violations"].append("traced run changed the simulated results")
        result["wall_s"] = time.time() - t0
        print_table(result)
        print("  wall %.1f s, %s" % (result["wall_s"], "correct" if result["correct"]
                                     else "INCORRECT"))
        ok = ok and result["correct"]
        results[workload] = result
    print("all workloads: %.1f s wall, %s" % (time.time() - started,
                                             "correct" if ok else "INCORRECT"))
    if args.out:
        path = os.path.join(args.out, "results_seed%d.json" % args.seed)
        with open(path, "w") as f:
            json.dump({"seed": args.seed, "seconds": seconds, "nproc": os.cpu_count(),
                       "workloads": results}, f, indent=1)
        print("wrote " + path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
