#!/usr/bin/env python3
"""Runs the end-to-end P3C+-MR pipeline benchmark. Run it from the
repository root; it builds build-bench/ (Release) from source first.

  run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
      One workload. The last stdout line is one JSON object with the keys
      correct, attempted, failed and metrics: the end-to-end metrics of
      BENCHMARK.json, or with --trace 1 its per-layer metrics.

  run.py [--trace] [--seed N]
      Every workload. Prints "workload metric value unit" lines and writes
      build-bench/results-<time>.json, the input of compare.py. Exits 1
      when a correctness check fails.

  run.py --smoke [--binary PATH]
      Every workload at 1/50 size: checks the correctness rules, that
      light-500k and light-500k-durable cluster identically, and that every
      metric named in BENCHMARK.json is printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BUILD_DIR = "build-bench"
BINARY = os.path.join(BUILD_DIR, "bench_pipeline")
SOURCE_DIR = os.path.join("bench", "pipeline")
# A single run must end within 180 s; the binary gets what is left after
# start-up. The first run in a fresh checkout also builds, and all of it
# must end within 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    if not os.path.isfile("src/CMakeLists.txt"):
        fail("no library sources under ./src; run from the repository root")
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "bench_pipeline"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    """Runs the binary on one workload; returns its parsed JSON report."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--work-dir", BUILD_DIR]
    if smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: exit code {done.returncode} and no JSON report")
    if done.returncode != 0 and report.get("correct"):
        report["correct"] = False
        report["errors"].append(f"exit code {done.returncode}")
    return report


def metric_names(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check(report, names):
    """The problem beyond the binary's own checks: a metric of `names` is
    missing."""
    missing = [n for n in names if n not in report["metrics"]]
    return [f"metrics not reported: {missing}"] if missing else []


def driver_mode(spec, args):
    """One workload, answered in the driver's JSON format."""
    build()
    report = run_workload(BINARY, args.workload, args.seed, args.seconds,
                          args.trace)
    names = metric_names(spec, args.trace)
    problems = check(report, names)
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    correct = report["correct"] and not problems
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: report["metrics"][n] for n in names
                    if n in report["metrics"]},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def print_metrics(workload, report):
    for name, m in report["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    samples = report["samples"].get("cluster_s", [])
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        print(f"{workload} cluster_s.q1 {q1:.6g} s")
        print(f"{workload} cluster_s.q3 {q3:.6g} s")
    print(f"{workload} cluster_s.samples {len(samples)} count")
    # The wall times before rescaling to the reference speed, and the
    # machine-speed probe's own time they were rescaled by.
    for name in ("cluster_wall_s", "setup_wall_s", "probe_s"):
        if report["samples"].get(name):
            print(f"{workload} {name} "
                  f"{statistics.median(report['samples'][name]):.6g} s")


def all_mode(spec, args):
    """Every workload: metric lines plus a results file for compare.py."""
    build()
    names = metric_names(spec, False) + (metric_names(spec, True)
                                         if args.trace else [])
    results = {"seed": args.seed, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        report = run_workload(BINARY, workload, args.seed,
                              spec["run_seconds"], args.trace)
        results["workloads"][workload] = report
        print_metrics(workload, report)
        problems = report["errors"] + check(report, names)
        if args.trace:
            print(f"{workload} trace {BUILD_DIR}/trace-{workload}.json")
        for problem in problems:
            print(f"{workload} FAILED {problem}")
        ok = ok and report["correct"] and not problems
        sys.stdout.flush()
    path = os.path.join(BUILD_DIR, time.strftime("results-%Y%m%d-%H%M%S") +
                        ("-trace" if args.trace else "") + ".json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    print(f"results written to {path}")
    return 0 if ok else 1


def smoke_mode(spec, args):
    if args.binary is None:
        build()
    binary = args.binary or BINARY
    start = time.monotonic()
    names = metric_names(spec, False) + metric_names(spec, True)
    digests = {}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        report = run_workload(binary, workload, args.seed, 0, True,
                              smoke=True)
        digests[workload] = report["digest"]
        if not report["correct"]:
            problems.append(f"{workload}: not correct")
        problems += [f"{workload}: {p}" for p in
                     report["errors"] + check(report, names)]
    if digests.get("light-500k") != digests.get("light-500k-durable"):
        problems.append("light-500k and light-500k-durable clustered "
                        f"differently: {digests}")
    for problem in problems:
        print(f"smoke FAILED {problem}")
    print(f"smoke {'failed' if problems else 'ok'} in "
          f"{time.monotonic() - start:.1f} s")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=71)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="prebuilt bench_pipeline (--smoke)")
    args = parser.parse_args()
    args.trace = args.trace == "1"
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.smoke:
        return smoke_mode(spec, args)
    if args.workload is not None:
        return driver_mode(spec, args)
    return all_mode(spec, args)


if __name__ == "__main__":
    sys.exit(main())
