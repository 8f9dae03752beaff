#!/usr/bin/env python3
"""Builds the SBR pipeline benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload weather_field --seed 1 --seconds 15 --trace 0

Workloads: weather_field, station_ingest, history_query, or "all" to run
the three in turn. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); durable logs and trace files go to
$CARGO_TARGET_DIR/perfbench-out. Build output is sent to stderr, so the last
line of stdout is always the result object. The exit code is non-zero if
the build fails or any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["weather_field", "station_ingest", "history_query"]


def build(build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        sys.stderr.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def run_one(binary, target, args, workload, sha):
    # The output directory is passed relative to the build root, so the
    # log paths the station keeps on its heap have the same length in
    # every checkout.
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", "perfbench-out", "--git-sha", sha]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170, cwd=target)
    lines = done.stdout.splitlines()
    return done.returncode, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    if not build(build_dir):
        return 2
    binary = os.path.join(build_dir, "perfbench")
    sha = git_sha()

    if args.workload != "all":
        code, lines = run_one(binary, target, args, args.workload, sha)
        for line in lines:
            print(line)
        return code

    # All workloads in turn: every record is printed, then one combined
    # result with the metrics keyed "<workload>/<metric>".
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, lines = run_one(binary, target, args, workload, sha)
        if code != 0:
            combined["correct"] = False
        for line in lines[:-1]:
            print(line)
        if not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "/" + name] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
