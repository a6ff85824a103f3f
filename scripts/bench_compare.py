#!/usr/bin/env python3
"""Compare a benchmark run against a checked-in release baseline.

Usage: bench_compare.py BASELINE.json CURRENT.json [--threshold 0.25]

Both files are google-benchmark JSON as written by bench_smoke.sh. For every
benchmark present in the baseline the median real_time across repetitions is
compared against the current run; a median more than --threshold (default
25%) slower fails the gate. Benchmarks added since the baseline are reported
but do not fail; benchmarks that disappeared do fail, so the baseline cannot
silently rot.

Both JSONs must carry the top-level "library_build_type": "Release" stamp
bench_smoke.sh injects — numbers from a debug library are rejected outright.
"""

import argparse
import json
import statistics
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: cannot read {path}: {exc}")


def require_release(doc, path):
    build_type = doc.get("library_build_type")
    if build_type != "Release":
        sys.exit(
            f"error: {path} has library_build_type={build_type!r}, "
            "expected 'Release' — run scripts/bench_smoke.sh to produce it"
        )


def medians(doc, path):
    """Median real_time per benchmark name over its repetition entries."""
    samples = {}
    for entry in doc.get("benchmarks", []):
        # Skip gbenchmark's aggregate rows (mean/median/stddev); the raw
        # iteration entries carry one sample per repetition.
        if entry.get("run_type", "iteration") != "iteration":
            continue
        name = entry.get("run_name", entry.get("name"))
        samples.setdefault(name, []).append(
            (entry["real_time"], entry.get("time_unit", "ns"))
        )
    result = {}
    for name, values in samples.items():
        units = {unit for _, unit in values}
        if len(units) != 1:
            sys.exit(f"error: {path}: {name} mixes time units {sorted(units)}")
        result[name] = (statistics.median(t for t, _ in values), units.pop())
    if not result:
        sys.exit(f"error: {path} contains no benchmark entries")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional slowdown per benchmark (default 0.25)",
    )
    args = parser.parse_args()

    base_doc = load(args.baseline)
    cur_doc = load(args.current)
    require_release(base_doc, args.baseline)
    require_release(cur_doc, args.current)
    base = medians(base_doc, args.baseline)
    cur = medians(cur_doc, args.current)

    failures = []
    width = max(len(name) for name in base | cur)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  ratio")
    for name in sorted(base):
        base_time, base_unit = base[name]
        if name not in cur:
            failures.append(f"{name}: present in baseline but not in current run")
            print(f"{name:<{width}}  {base_time:>12.1f}  {'MISSING':>12}")
            continue
        cur_time, cur_unit = cur[name]
        if base_unit != cur_unit:
            failures.append(
                f"{name}: time unit changed {base_unit} -> {cur_unit}"
            )
            continue
        ratio = cur_time / base_time
        flag = ""
        if ratio > 1.0 + args.threshold:
            failures.append(
                f"{name}: median {cur_time:.1f}{cur_unit} is "
                f"{(ratio - 1.0) * 100.0:.1f}% slower than baseline "
                f"{base_time:.1f}{base_unit}"
            )
            flag = "  REGRESSION"
        print(
            f"{name:<{width}}  {base_time:>12.1f}  {cur_time:>12.1f}  "
            f"{ratio:5.2f}{flag}"
        )
    for name in sorted(set(cur) - set(base)):
        print(f"{name:<{width}}  {'(new)':>12}  {cur[name][0]:>12.1f}")

    if failures:
        print(f"\n{len(failures)} regression(s) beyond "
              f"{args.threshold * 100:.0f}%:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: no benchmark regressed more than {args.threshold * 100:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
