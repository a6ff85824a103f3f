#!/usr/bin/env python3
"""Check that two result sets of the end-to-end benchmark agree within the
bounds BENCHMARK.json fixes.

    bench/e2e/agree.py A B [--benchmark BENCHMARK.json]

A result set is a directory of veriqc_e2e result files, one result file, or
a {"runs": [...]} document (run.sh writes the last two forms). Only
untraced runs are compared. Every end-to-end metric of every workload gets
its own row:

    agree       |median(B) - median(A)| <= bound * median(A)
    DIFFER      the medians are further apart than the bound
    unresolved  a set's own spread, (Q3 - Q1) / median over its runs, is
                wider than the bound, so the comparison cannot decide

Exit status 1 when a row reads DIFFER, a run is marked incorrect, or a
workload is missing from one set.
"""

import argparse
import json
import pathlib
import statistics
import sys


def load_runs(path):
    path = pathlib.Path(path)
    if path.is_dir():
        files = sorted(f for f in path.glob("*.json")
                       if not f.name.endswith(".trace.json"))
        docs = [json.loads(f.read_text()) for f in files]
    else:
        doc = json.loads(path.read_text())
        docs = doc["runs"] if "runs" in doc else [doc]
    return [d for d in docs if not d.get("trace", False)]


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def by_workload(runs):
    grouped = {}
    for run in runs:
        grouped.setdefault(run["workload"], []).append(run)
    return grouped


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()

    bench = json.loads(pathlib.Path(args.benchmark).read_text())
    sets = [by_workload(load_runs(args.a)), by_workload(load_runs(args.b))]
    failed = False
    for label, runs in zip(("A", "B"), sets):
        bad = [r["workload"] for rs in runs.values() for r in rs
               if not r["correct"]]
        if bad:
            print(f"set {label}: incorrect runs on {', '.join(bad)}")
            failed = True

    header = (f"{'workload':22} {'metric':18} {'median A':>12} "
              f"{'median B':>12} {'change':>8} {'spread A':>8} "
              f"{'spread B':>8} {'bound':>6}  verdict")
    print(header)
    for workload in (w["name"] for w in bench["workloads"]):
        if workload not in sets[0] or workload not in sets[1]:
            print(f"{workload:22} missing from a set")
            failed = True
            continue
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in s[workload]]
                      for s in sets]
            med_a, med_b = (statistics.median(v) for v in values)
            spread_a, spread_b = (spread(v) for v in values)
            change = (med_b - med_a) / med_a if med_a else 0.0
            if max(spread_a, spread_b) > bound:
                verdict = "unresolved"
            elif abs(change) <= bound:
                verdict = "agree"
            else:
                verdict = "DIFFER"
                failed = True
            print(f"{workload:22} {name:18} {med_a:12.4f} {med_b:12.4f} "
                  f"{change:+8.2%} {spread_a:8.2%} {spread_b:8.2%} "
                  f"{bound:6.2f}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
