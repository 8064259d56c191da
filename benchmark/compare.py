#!/usr/bin/env python3
"""Compare benchmark runs against the bounds in BENCHMARK.json.

usage: compare.py PARENT_DIR [CHANGE_DIR] [--benchmark BENCHMARK.json]
                  [--claim WORKLOAD:METRIC ...]

Each directory holds result files written by `benchmark/run.py --save DIR`
(untraced runs are used; traced ones are skipped).

With one directory, prints for every workload and end-to-end metric the
median, the quartiles and the spread (interquartile range as a share of the
median) of its runs, and flags a spread above the metric's bound ("WIDE") or
above a third of it ("noisy").

With two directories (parent first), prints both sides' median and quartiles
and a verdict per workload and metric:
  better      the change's median is better by more than the parent's spread
  worse       the change's median is worse by more than the metric's bound
  same        neither
  unresolved  the parent's spread exceeds the bound and the two sides' runs
              overlap (when every change run is better, or worse, than every
              parent run, that verdict stands instead)
Each --claim WORKLOAD:METRIC is also judged by the paired-win rule: runs
paired by seed, the change must win at least 9 of every 10 pairs (ties count
for neither side) and the medians must differ by more than the parent's
spread. Finally the share of failed operations of each side is printed; the
change may not fail more often than the parent.

Exit status 1 when a pair reads worse, a claim is not met, or failures grew.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory):
    """{workload: [(seed, result)]} of the untraced runs in `directory`."""
    runs = {}
    paths = sorted(glob.glob(os.path.join(directory, "*.json")))
    if not paths:
        sys.exit(f"compare.py: no result files in {directory}")
    for path in paths:
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
        if record.get("trace"):
            continue
        runs.setdefault(record["workload"], []).append((record["seed"], record["result"]))
    return runs


def summary(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(parent, change, better):
    """Relative change of `change` against `parent`, positive = worse."""
    if parent == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def fmt(value):
    return f"{value:.6g}"


def failed_share(runs):
    attempted = sum(r["attempted"] for rs in runs.values() for _, r in rs)
    failed = sum(r["failed"] for rs in runs.values() for _, r in rs)
    return failed, attempted


def one_side(runs, metrics):
    print(f"{'workload':16} {'metric':18} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'bound':>6}")
    for workload in sorted(runs):
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for _, r in runs[workload]]
            med, q1, q3 = summary(values)
            s = spread(values)
            flag = ""
            if m["name"] != "setup_s" and s > m["bound"]:
                flag = "WIDE"
            elif s > m["bound"] / 3:
                flag = "noisy"
            print(f"{workload:16} {m['name']:18} {len(values):3} {fmt(med):>12} {fmt(q1):>12}"
                  f" {fmt(q3):>12} {s:8.3f} {m['bound']:6.2f} {flag}")
    failed, attempted = failed_share(runs)
    print(f"failed operations: {failed} of {attempted}")
    return 0


def two_sides(parent, change, metrics, claims):
    status = 0
    print(f"{'workload':16} {'metric':18} {'parent median [q1, q3]':>36}"
          f" {'change median [q1, q3]':>36} {'change':>8}  verdict")
    by_name = {m["name"]: m for m in metrics}
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload:16} runs on one side only")
            status = 1
            continue
        for m in metrics:
            a = [r["metrics"][m["name"]]["value"] for _, r in parent[workload]]
            b = [r["metrics"][m["name"]]["value"] for _, r in change[workload]]
            (ma, qa1, qa3), (mb, qb1, qb3) = summary(a), summary(b)
            delta = worse_by(ma, mb, m["better"])
            wide = spread(a) > m["bound"]
            all_better = all(worse_by(x, y, m["better"]) < 0 for x in a for y in b)
            all_worse = all(worse_by(x, y, m["better"]) > 0 for x in a for y in b)
            if delta > m["bound"] and (not wide or all_worse):
                verdict = "worse"
                status = 1
            elif -delta > spread(a) and (not wide or all_better):
                verdict = "better"
            elif wide and not (all_better or all_worse):
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"{workload:16} {m['name']:18} {fmt(ma):>12} [{fmt(qa1)}, {fmt(qa3)}]".ljust(72)
                  + f" {fmt(mb):>12} [{fmt(qb1)}, {fmt(qb3)}]".ljust(37)
                  + f" {delta:+8.3f}  {verdict}")
    for claim in claims:
        workload, _, name = claim.partition(":")
        m = by_name.get(name)
        if m is None or workload not in parent or workload not in change:
            print(f"claim {claim}: unknown workload or metric")
            status = 1
            continue
        a = {seed: r["metrics"][name]["value"] for seed, r in parent[workload]}
        b = {seed: r["metrics"][name]["value"] for seed, r in change[workload]}
        seeds = sorted(set(a) & set(b))
        wins = sum(1 for s in seeds if worse_by(a[s], b[s], m["better"]) < 0)
        losses = sum(1 for s in seeds if worse_by(a[s], b[s], m["better"]) > 0)
        gain = -worse_by(statistics.median(a.values()), statistics.median(b.values()),
                         m["better"])
        met = bool(seeds) and wins >= 0.9 * len(seeds) and gain > spread(list(a.values()))
        print(f"claim {claim}: {wins} wins, {losses} losses in {len(seeds)} seed pairs, "
              f"median gain {gain:+.3f} vs parent spread {spread(list(a.values())):.3f}: "
              f"{'met' if met else 'NOT met'}")
        if not met:
            status = 1
    (fa, aa), (fb, ab) = failed_share(parent), failed_share(change)
    print(f"failed operations: parent {fa} of {aa}, change {fb} of {ab}")
    if aa and ab and fb / ab > fa / aa:
        print("the change fails more operations than the parent")
        status = 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                            "BENCHMARK.json"))
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    args = parser.parse_args()
    with open(args.benchmark, encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    parent = load_runs(args.parent)
    if args.change is None:
        sys.exit(one_side(parent, metrics))
    sys.exit(two_sides(parent, load_runs(args.change), metrics, args.claim))


if __name__ == "__main__":
    main()
