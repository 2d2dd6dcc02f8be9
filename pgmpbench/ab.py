#!/usr/bin/env python3
"""Interleaved A/B of two builds of the end-to-end benchmark.

  python3 pgmpbench/ab.py BASE_BUILD HEAD_BUILD [--pairs 10] [--seed N]
                          [--seconds S] [--workloads a,b]

BASE_BUILD and HEAD_BUILD are build directories of the pgmpbench package,
one made from the parent's checkout and one from the change's, each with
  cmake -S pgmpbench -B DIR -DCMAKE_BUILD_TYPE=Release
  cmake --build DIR --target pgmpbench
Both sides run with this checkout's BENCHMARK.json. Each pair runs
every workload once on each side, alternating which side goes first. For
each (workload, end-to-end metric) the table shows both sides' median and
quartiles, the share of pairs the change won (ties count for neither), and
a verdict:

  gain           the change won at least 9 in 10 of at least 10 pairs
                 and the medians differ by more than the parent's
                 interquartile range
  regression     the change's median is worse than the parent's by more
                 than the metric's bound in BENCHMARK.json
  unresolved     the parent's own spread exceeds the bound and the change
                 did not beat every parent run
  no regression  otherwise
"""

import argparse
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def verdict(base, head, metric, wins):
    lower = metric["better"] == "lower"
    q1, bmed, q3 = bench.quartiles(base)
    hmed = statistics.median(head)
    gain = (bmed - hmed) if lower else (hmed - bmed)
    if wins >= 0.9 and gain > 0 and abs(hmed - bmed) > q3 - q1:
        return "gain" if len(base) >= 10 else "gain? (under 10 pairs)"
    if -gain > metric["bound"] * bmed:
        return "regression"
    beats_all = (max(head) < min(base)) if lower else (min(head) > max(base))
    if (q3 - q1) > metric["bound"] * bmed and not beats_all:
        return "unresolved"
    return "no regression"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--workloads")
    args = ap.parse_args()

    spec = bench.load_spec()
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    sides = {"base": os.path.join(os.path.abspath(args.base), "pgmpbench"),
             "head": os.path.join(os.path.abspath(args.head), "pgmpbench")}
    for path in sides.values():
        if not os.access(path, os.X_OK):
            bench.fail("no built pgmpbench at " + path)

    values = {(s, w): [] for s in sides for w in workloads}
    failures = 0
    for pair in range(args.pairs):
        order = ["base", "head"] if pair % 2 == 0 else ["head", "base"]
        for w in workloads:
            for side in order:
                code, result = bench.run_once(sides[side], w, args.seed,
                                              seconds, False)
                if code != 0 or result is None or result["failed"]:
                    failures += 1
                    print("ab.py: %s %s pair %d failed (exit %d)" %
                          (side, w, pair, code), file=sys.stderr)
                values[(side, w)].append(result["metrics"] if result else None)

    def cell(q):
        return "%.5g [%.5g, %.5g]" % (q[1], q[0], q[2])

    print("%-16s %-14s %-30s %-30s %5s  %s" %
          ("workload", "metric", "base median [q1, q3]",
           "head median [q1, q3]", "wins", "verdict"))
    for w in workloads:
        for m in spec["end_to_end"]:
            pairs = [(b[m["name"]]["value"], h[m["name"]]["value"])
                     for b, h in zip(values[("base", w)], values[("head", w)])
                     if b and h]
            if not pairs:
                continue
            base = [b for b, _ in pairs]
            head = [h for _, h in pairs]
            lower = m["better"] == "lower"
            wins = sum((h < b) if lower else (h > b) for b, h in pairs) / len(pairs)
            print("%-16s %-14s %-30s %-30s %4.0f%%  %s" %
                  (w, m["name"], cell(bench.quartiles(base)),
                   cell(bench.quartiles(head)), 100 * wins,
                   verdict(base, head, m, wins)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
