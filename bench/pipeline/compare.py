#!/usr/bin/env python3
"""Compares pipeline-benchmark results of a parent and a change.

  compare.py PARENT.json CHANGE.json
  compare.py P1.json C1.json P2.json C2.json ...   (N parent/change pairs)

Inputs are results files written by `run.py` (build-bench/results-*.json).
List the files of each pair parent first, whichever of the two ran first;
alternate the run order between pairs yourself.

For every end-to-end metric of BENCHMARK.json it prints one row per
workload: each side's median and quartiles, the change's relative
difference, the parent's spread (interquartile distance over median), the
pairs the change won, and a verdict:

  REGRESSION  the change's median is worse than the parent's by more than
              the metric's bound (the parent's spread is within the bound)
  unresolved  the parent's spread exceeds the bound, so no-regression
              cannot be shown, unless every change run beats every parent
              run ("better")
  gain        at least 10 pairs, the change wins at least 9/10 of them
              (ties count for neither) and the medians differ by more than
              the parent's interquartile distance
  ok          none of the above

With one pair, the values are the per-call samples each run recorded where
there are several (cluster_s, setup_s) and the run's single value
otherwise. With several pairs, each run contributes its reported value.

Exits 1 on any regression, or when the change fails more calls or checks
than the parent.
"""

import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as f:
        return json.load(f)["workloads"]


def values(runs, workload, metric):
    """The sample of one side: per-call samples for a single run."""
    if len(runs) == 1:
        report = runs[0][workload]
        samples = report.get("samples", {}).get(metric)
        if samples and len(samples) > 1:
            return samples
        return [report["metrics"][metric]["value"]]
    return [run[workload]["metrics"][metric]["value"] for run in runs]


def summary(sample):
    median = statistics.median(sample)
    if len(sample) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(sample, n=4)
    return median, q1, q3


def verdict(metric, parent_runs, change_runs, workload):
    lower = metric["better"] == "lower"
    name = metric["name"]
    parent = values(parent_runs, workload, name)
    change = values(change_runs, workload, name)
    p_med, p_q1, p_q3 = summary(parent)
    c_med, c_q1, c_q3 = summary(change)
    sign = 1.0 if lower else -1.0
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0.0
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0

    def better(c, p):
        return c < p if lower else c > p

    pair_values = [(c[workload]["metrics"][name]["value"],
                    p[workload]["metrics"][name]["value"])
                   for p, c in zip(parent_runs, change_runs)]
    wins = sum(better(c, p) for c, p in pair_values)
    pairs = len(pair_values)
    if spread > metric["bound"]:
        if all(better(c, p) for c in change for p in parent):
            result = "better"
        else:
            result = "unresolved"
    elif worse_by > metric["bound"]:
        result = "REGRESSION"
    elif (pairs >= 10 and wins >= 0.9 * pairs and better(c_med, p_med)
          and abs(c_med - p_med) > p_q3 - p_q1):
        result = "gain"
    else:
        result = "ok"
    return {
        "parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
        "delta": (c_med - p_med) / p_med if p_med else 0.0,
        "spread": spread, "wins": wins, "pairs": pairs, "verdict": result,
    }


def failures(runs, workload):
    return sum(run[workload]["failed"] + (not run[workload]["correct"])
               for run in runs)


def main():
    parser = argparse.ArgumentParser(
        description="Compare parent/change results of the pipeline bench.")
    parser.add_argument("files", nargs="+",
                        help="PARENT CHANGE [PARENT CHANGE ...]")
    parser.add_argument("--spec", default="BENCHMARK.json")
    args = parser.parse_args()
    if len(args.files) % 2:
        parser.error("give results files in parent/change pairs")
    with open(args.spec) as f:
        spec = json.load(f)
    runs = [load(path) for path in args.files]
    parent_runs, change_runs = runs[0::2], runs[1::2]
    workloads = [w["name"] for w in spec["workloads"]
                 if all(w["name"] in run for run in runs)]
    if not workloads:
        parser.error("the files share no workload of BENCHMARK.json")

    bad = False
    print(f"{len(parent_runs)} pair(s); values: "
          f"{'per-call samples' if len(parent_runs) == 1 else 'per-run'}")
    for metric in spec["end_to_end"]:
        print(f"\n{metric['name']} ({metric['unit']}, {metric['better']} is "
              f"better, bound {metric['bound']:.1%})")
        print(f"  {'workload':<20} {'parent median [q1, q3]':>28} "
              f"{'change median [q1, q3]':>28} {'delta':>7} {'spread':>7} "
              f"{'wins':>6}  verdict")
        for workload in workloads:
            v = verdict(metric, parent_runs, change_runs, workload)
            bad = bad or v["verdict"] == "REGRESSION"
            p, c = (f"{m:.4g} [{q1:.4g}, {q3:.4g}]"
                    for m, q1, q3 in (v["parent"], v["change"]))
            print(f"  {workload:<20} {p:>28} {c:>28} "
                  f"{v['delta']:>+7.1%} {v['spread']:>7.1%} "
                  f"{v['wins']:>3}/{v['pairs']:<2}  {v['verdict']}")
    for workload in workloads:
        parent_fails = failures(parent_runs, workload)
        change_fails = failures(change_runs, workload)
        if change_fails > parent_fails:
            bad = True
            print(f"\n{workload}: the change failed {change_fails} calls or "
                  f"checks, the parent {parent_fails}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
