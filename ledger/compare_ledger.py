#!/usr/bin/env python3
"""Report the spread of one set of pipeline-ledger runs, or compare two.

    python3 ledger/compare_ledger.py BASE [CHANGE] [--bundle OUT]

BASE and CHANGE are each a directory of run records (the *.json files the
ledger writes next to its traces, by default .bench_build/ledger) or a
bundle: one JSON file holding a list of records, as committed under
ledger/baseline/. --bundle writes BASE's records to OUT as such a bundle.

Only untraced records carry the end-to-end metrics; bounds and the
better direction come from BENCHMARK.json.

One set: per (workload, end-to-end metric), the median over runs and the
spread (q3 - q1) / median, with quartiles from statistics.quantiles(n=4),
flagged when it exceeds a third of the metric's bound.

Two sets: per (workload, end-to-end metric), one verdict:
  within      the change's median is within the bound of the base's;
  worse       it is worse than the base's by more than the bound;
  better      it is better by more than the bound;
  unresolved  either set's spread exceeds the bound, unless every change
              run beats every base run (then: better).
The outputs digests of runs with the same workload and seed must also be
equal: the lifetimes, serve replies and DRM damage are deterministic.

Exit status: 1 if a run is incorrect, a verdict is worse or digests
differ, else 0.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    if os.path.isdir(path):
        records = []
        for name in sorted(glob.glob(os.path.join(path, "*.json"))):
            if name.endswith(".trace.json"):
                continue
            with open(name) as f:
                records.append(json.load(f))
        return records
    with open(path) as f:
        return json.load(f)


def by_workload(records):
    """{workload: [untraced record, ...]}"""
    out = {}
    for r in records:
        if not r["trace"]:
            out.setdefault(r["workload"], []).append(r)
    return out


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs]


def spread(xs):
    if len(xs) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def verdict(base, change, bound, lower_is_better):
    b, c = statistics.median(base), statistics.median(change)
    better_all = (max(change) < min(base) if lower_is_better
                  else min(change) > max(base))
    if max(spread(base), spread(change)) > bound:
        return "better" if better_all else "unresolved"
    delta = (c - b) / b if lower_is_better else (b - c) / b
    if delta > bound:
        return "worse"
    if delta < -bound:
        return "better"
    return "within"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--bundle", metavar="OUT")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base_records = load(args.base)
    if args.bundle:
        with open(args.bundle, "w") as f:
            f.write("[\n" + ",\n".join(json.dumps(r, sort_keys=True)
                                       for r in base_records) + "\n]\n")

    status = 0
    sets = [base_records] + ([load(args.change)] if args.change else [])
    for records in sets:
        for r in records:
            if not r["correct"] or r["failed"]:
                print("incorrect run: %s seed %s: %s" % (
                    r["workload"], r["seed"], r["check_failures"]))
                status = 1

    base = by_workload(base_records)
    if not args.change:
        print("%-18s %-12s %5s %14s %8s %8s" % (
            "workload", "metric", "runs", "median", "spread", "bound/3"))
        for w, runs in sorted(base.items()):
            for m in spec["end_to_end"]:
                xs = values(runs, m["name"])
                s = spread(xs)
                print("%-18s %-12s %5d %14.6g %8.4f %8.4f%s" % (
                    w, m["name"], len(xs), statistics.median(xs), s,
                    m["bound"] / 3, "  WIDE" if s > m["bound"] / 3 else ""))
        return status

    change = by_workload(load(args.change))
    print("%-18s %-12s %14s %14s %8s  %s" % (
        "workload", "metric", "base median", "change median", "bound",
        "verdict"))
    for w in sorted(set(base) & set(change)):
        for m in spec["end_to_end"]:
            xb, xc = values(base[w], m["name"]), values(change[w], m["name"])
            v = verdict(xb, xc, m["bound"], m["better"] == "lower")
            status |= v == "worse"
            print("%-18s %-12s %14.6g %14.6g %8.2f  %s" % (
                w, m["name"], statistics.median(xb), statistics.median(xc),
                m["bound"], v))
        digests = {}
        for r in base[w] + change[w]:
            digests.setdefault(r["seed"], set()).add(r["outputs_digest"])
        differ = sorted(s for s, d in digests.items() if len(d) > 1)
        if differ:
            print("%-18s outputs differ for seeds %s" % (w, differ))
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
