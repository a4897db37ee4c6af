#!/usr/bin/env python3
"""Compares two sets of Rover benchmark results.

  python3 roverbench/compare_runs.py A/ B/

Each directory holds results JSON written by run_benchmark.py --out (one
file per run, every workload inside) or the harness's own result lines. For
every workload and metric the script prints each side's median and
quartiles. An end-to-end metric whose B median is worse than A's by more
than its BENCHMARK.json bound is flagged REGRESSED; one whose run-to-run
spread (quartile distance over median) is wider than the bound is reported
as unresolved unless every B run beats every A run. Runs of one seed must
reproduce the same simulated results on both sides (the sim digest).
Exits 1 when anything regressed or a digest differs.
"""

import argparse
import collections
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """Yields one harness result per (run, workload)."""
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if os.path.basename(path).startswith("trace_"):
            continue
        with open(path) as f:
            data = json.load(f)
        if "workloads" in data:
            yield from data["workloads"].values()
        elif "workload" in data:
            yield data


def collect(directory):
    values = collections.defaultdict(lambda: collections.defaultdict(list))
    digests = {}
    for run in load_runs(directory):
        workload = run["workload"]
        digests[(workload, run["seed"])] = run["sim_digest"]
        for section in ("end_to_end", "per_layer"):
            for name, metric in run.get(section, {}).items():
                if metric["value"] is not None:
                    values[workload][name].append(metric["value"])
    return values, digests


def summary(samples):
    median = statistics.median(samples)
    if len(samples) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return median, q1, q3


def spread(samples):
    median, q1, q3 = summary(samples)
    return (q3 - q1) / median if median else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a_values, a_digests = collect(args.a)
    b_values, b_digests = collect(args.b)

    failed = False
    for workload in sorted(set(a_values) | set(b_values)):
        print(workload)
        print("  %-32s %-36s %-36s %8s  %s" % ("metric", "A median [q1, q3]",
                                                 "B median [q1, q3]", "change", "verdict"))
        names = list(a_values[workload]) + [n for n in b_values[workload]
                                            if n not in a_values[workload]]
        for name in names:
            a = a_values[workload].get(name, [])
            b = b_values[workload].get(name, [])
            if not a or not b:
                print("  %-32s only on one side" % name)
                continue
            am, aq1, aq3 = summary(a)
            bm, bq1, bq3 = summary(b)
            change = (bm - am) / am if am else 0.0
            verdict = ""
            spec_metric = bounds.get(name)
            if spec_metric is not None:
                bound = spec_metric["bound"]
                worse = change if spec_metric["better"] == "lower" else -change
                higher_better = spec_metric["better"] == "higher"
                b_beats_all = (min(b) > max(a)) if higher_better else (max(b) < min(a))
                if worse > bound:
                    verdict = "REGRESSED (bound %.0f%%)" % (bound * 100)
                    failed = True
                elif max(spread(a), spread(b)) > bound and not b_beats_all:
                    verdict = "unresolved (spread > %.0f%%)" % (bound * 100)
                else:
                    verdict = "ok (bound %.0f%%)" % (bound * 100)
            print("  %-32s %-36s %-36s %+7.2f%%  %s" % (
                name, "%.6g [%.6g, %.6g]" % (am, aq1, aq3),
                "%.6g [%.6g, %.6g]" % (bm, bq1, bq3), change * 100, verdict))

    shared = sorted(set(a_digests) & set(b_digests))
    differ = [key for key in shared if a_digests[key] != b_digests[key]]
    print("sim digests: %d (workload, seed) pairs on both sides, %d differ" % (
        len(shared), len(differ)))
    for workload, seed in differ:
        print("  %s seed %d: %s vs %s" % (workload, seed, a_digests[(workload, seed)],
                                         b_digests[(workload, seed)]))
    return 1 if failed or differ else 0


if __name__ == "__main__":
    sys.exit(main())
