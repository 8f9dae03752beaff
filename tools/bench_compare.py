#!/usr/bin/env python3
"""Diff a bench JSON file against a committed baseline.

Two input schemas are understood:

- BENCH_*.json from the bench binaries (bench_query and friends): a JSON
  array of records, each keyed by ("mix", "threads") or similar
  identifying fields.
- Google Benchmark's --benchmark_out JSON (bench_micro): an object whose
  "benchmarks" array holds one record per run, keyed by "name". When a
  benchmark ran with repetitions, only its median row is compared. Its
  real_time is compared in nanoseconds whatever each file's time_unit.

A blessed snapshot lives under bench/baselines/. This tool lines the two
files up record by record and reports throughput and latency drift,
failing (exit 1) when a comparable metric regresses beyond the
threshold — the check a perf PR runs before moving the baseline.

Usage:
  tools/bench_compare.py build/BENCH_query.json \
      bench/baselines/BENCH_query.json [--threshold 0.30]
  build/bench/bench_micro --benchmark_filter=QueryServicePublish \
      --benchmark_enable_random_interleaving=true \
      --benchmark_out=build/BENCH_micro_publish.json
  tools/bench_compare.py build/BENCH_micro_publish.json \
      bench/baselines/BENCH_micro_publish.json --threshold 0.50

Higher-is-better metrics: qps, speedup, items_per_second,
bytes_per_second. Lower-is-better: real_time_ns, seconds, p50_us,
p99_us, and every "allocs/<op>" counter (heap allocations per operation,
counted by bench_micro's allocator). Allocation counts are exact, not
timed, so they ignore the threshold: one that rises by more than 0.5
per operation is fatal, whatever the host. Records present on only one side are reported but never fatal
(new mixes appear, old ones retire); a Google Benchmark record that
failed on the current side is fatal. Latency percentiles and seconds
drift are advisory (single-run percentiles are noisy), and so is every
metric of a row run with "threads" > 1: thread-scaling rows spread up to
about 3x between runs of one binary on a shared 4-vCPU host, so they are
reported with "~" but never fail the diff. The others are fatal beyond
the threshold.
"""

import argparse
import json
import sys

HIGHER_IS_BETTER = ("qps", "speedup", "items_per_second", "bytes_per_second")
LOWER_IS_BETTER = ("real_time_ns", "p50_us", "p99_us", "seconds")
ADVISORY = ("p50_us", "p99_us", "seconds")
ALLOCS_PREFIX = "allocs/"
# Fatal rise of an allocation count, in allocations per operation.
ALLOCS_SLACK = 0.5
KEY_FIELDS = ("mix", "threads", "name", "case")
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def record_key(record, index):
    key = tuple(
        (f, record[f]) for f in KEY_FIELDS if f in record)
    return key if key else (("index", index),)


def multi_threaded(record):
    """Thread-scaling rows are advisory: too noisy to gate."""
    try:
        return int(record.get("threads", 1)) > 1
    except (TypeError, ValueError):
        return False


def gbench_records(doc):
    """The comparable rows of a Google Benchmark JSON document."""
    records = []
    for run in doc["benchmarks"]:
        if (run.get("run_type") == "aggregate"
                and run.get("aggregate_name") != "median"):
            continue
        record = dict(run)
        if "real_time" in run:
            unit = run.get("time_unit", "ns")
            record["real_time_ns"] = run["real_time"] * NS_PER_UNIT[unit]
        records.append(record)
    return records


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if isinstance(doc, dict) and isinstance(doc.get("benchmarks"), list):
        records = gbench_records(doc)
    elif isinstance(doc, list):
        records = doc
    else:
        raise ValueError(f"{path}: expected a JSON array of records or "
                         "Google Benchmark output")
    return {record_key(r, i): r for i, r in enumerate(records)}


def fmt_key(key):
    return "/".join(str(v) for _, v in key)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly produced BENCH_*.json")
    parser.add_argument("baseline", help="blessed snapshot to diff against")
    parser.add_argument(
        "--threshold", type=float, default=0.30,
        help="fatal relative regression on the non-advisory metrics "
             "(default 0.30)")
    args = parser.parse_args()

    current = load(args.current)
    baseline = load(args.baseline)

    regressions = []
    rows = 0
    for key in sorted(baseline, key=fmt_key):
        if key not in current:
            print(f"  only-in-baseline: {fmt_key(key)}")
            continue
        base, cur = baseline[key], current[key]
        if cur.get("error_occurred"):
            regressions.append(
                f"{fmt_key(key)} failed: {cur.get('error_message', '')}")
            continue
        for metric in HIGHER_IS_BETTER + LOWER_IS_BETTER:
            if metric not in base or metric not in cur:
                continue
            b, c = float(base[metric]), float(cur[metric])
            if b == 0:
                continue
            delta = (c - b) / b
            worse = -delta if metric in HIGHER_IS_BETTER else delta
            marker = " "
            if worse > args.threshold:
                if metric in ADVISORY or multi_threaded(base):
                    marker = "~"  # advisory: percentile, seconds or scaling
                else:
                    marker = "!"
                    regressions.append(
                        f"{fmt_key(key)} {metric}: {b:.1f} -> {c:.1f} "
                        f"({delta:+.1%})")
            print(f"{marker} {fmt_key(key):32s} {metric:10s} "
                  f"{b:14.3f} -> {c:14.3f}  {delta:+7.1%}")
            rows += 1
        for metric in sorted(m for m in base if m.startswith(ALLOCS_PREFIX)):
            if metric not in cur:
                continue
            b, c = float(base[metric]), float(cur[metric])
            marker = " "
            if c - b > ALLOCS_SLACK:
                marker = "!"
                regressions.append(
                    f"{fmt_key(key)} {metric}: {b:.2f} -> {c:.2f} "
                    f"(+{c - b:.2f} per operation)")
            print(f"{marker} {fmt_key(key):32s} {metric:10s} "
                  f"{b:14.3f} -> {c:14.3f}  {c - b:+7.2f}")
            rows += 1
    for key in sorted(set(current) - set(baseline), key=fmt_key):
        print(f"  only-in-current:  {fmt_key(key)}")

    if rows == 0:
        print("no comparable metrics found", file=sys.stderr)
        return 1
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%} (allocation counts: beyond "
              f"+{ALLOCS_SLACK} per operation):", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        return 1
    print(f"\nOK: {rows} metric rows within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
