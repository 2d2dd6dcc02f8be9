#!/usr/bin/env python3
"""End-to-end benchmark of the PGMP runtime: one command for every workload.

Builds the pgmpbench driver from this checkout (first use only), then:

One run (the form BENCHMARK.json names; prints one JSON line last):
  python3 pgmpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A suite: every workload, --reps times, in interleaved order, with median
and quartiles per (workload, metric), and optionally a traced run each:
  python3 pgmpbench/run.py [--reps K] [--seed N] [--workloads a,b]
                           [--seconds S] [--build DIR] [--trace DIR]
                           [--json OUT]

The smoke test (ctest BenchE2E.Smoke in the package's own build):
  python3 pgmpbench/run.py --smoke [--build DIR]

The build goes to --build, else $CARGO_TARGET_DIR, else .bench_build, all
relative to the repository root. Exit status is non-zero when any
operation failed, a declared metric is missing, or the build failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build_dir(arg):
    path = arg or os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def ensure_built(build):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no libpgmp sources next to %s; run from a full checkout" % HERE)
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build, "--target", "pgmpbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build, "pgmpbench")


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """Runs the driver once; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--tmp", os.path.dirname(binary)] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: %s timed out" % workload, file=sys.stderr)
        return 1, None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def missing_metrics(result, declared):
    """Names of declared metrics absent from a result or with another unit."""
    got = result.get("metrics", {}) if result else {}
    return [m["name"] for m in declared
            if m["name"] not in got or got[m["name"]].get("unit") != m["unit"]]


def suite(args, binary, spec):
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    samples = {w: [] for w in workloads}
    attempted = {w: 0 for w in workloads}
    failed = {w: 0 for w in workloads}
    ok = True
    for rep in range(args.reps):
        # Rotate the order each rep, so no workload always runs first.
        order = workloads[rep % len(workloads):] + workloads[:rep % len(workloads)]
        for w in order:
            code, result = run_once(binary, w, args.seed, seconds, False)
            if code != 0 or result is None:
                print("run.py: %s rep %d exited %d" % (w, rep, code),
                      file=sys.stderr)
                ok = False
            if result is None:
                continue
            attempted[w] += result["attempted"]
            failed[w] += result["failed"]
            lost = missing_metrics(result, spec["end_to_end"])
            if lost:
                print("run.py: %s is missing %s" % (w, ", ".join(lost)),
                      file=sys.stderr)
                ok = False
            samples[w].append(result["metrics"])

    summary = {"seed": args.seed, "seconds": seconds, "reps": args.reps,
               "workloads": {}}
    print("%-16s %-16s %14s %14s %14s %-6s" %
          ("workload", "metric", "median", "q1", "q3", "unit"))
    for w in workloads:
        rows = {}
        for m in spec["end_to_end"]:
            values = [s[m["name"]]["value"] for s in samples[w] if m["name"] in s]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "unit": m["unit"], "values": values}
            print("%-16s %-16s %14.6g %14.6g %14.6g %-6s" %
                  (w, m["name"], med, q1, q3, m["unit"]))
        ratio = failed[w] / attempted[w] if attempted[w] else 1.0
        print("%-16s %-16s %14.6g %14s %14s %-6s  (%d ops attempted)" %
              (w, "failed_ratio", ratio, "", "", "ratio", attempted[w]))
        ok = ok and failed[w] == 0 and attempted[w] > 0
        summary["workloads"][w] = {"metrics": rows, "attempted": attempted[w],
                                   "failed": failed[w], "failed_ratio": ratio}

    if args.trace:
        os.makedirs(args.trace, exist_ok=True)
        for w in workloads:
            code, result = run_once(binary, w, args.seed, seconds, True,
                                    ["--trace-dir", os.path.abspath(args.trace)])
            lost = missing_metrics(result, spec["per_layer"])
            if code != 0 or result is None or lost:
                print("run.py: traced %s failed (exit %d) %s" %
                      (w, code, ", ".join(lost)), file=sys.stderr)
                ok = False
                continue
            with open(os.path.join(args.trace, w + ".layers.json")) as f:
                layers = json.load(f)
            p50 = summary["workloads"][w]["metrics"].get("p50_us", {}).get("median")
            overhead = layers["traced_p50_us"] / p50 - 1 if p50 else None
            summary["workloads"][w]["layers"] = result["metrics"]
            summary["workloads"][w]["tracing_overhead"] = overhead
            print("\n%s: %d traced ops, %s" % (w, layers["ops"],
                  "tracing overhead %+.1f%% on p50" % (100 * overhead)
                  if overhead is not None else "no untraced p50 to compare"))
            for name, m in result["metrics"].items():
                print("  %-30s %16.10g %s" % (name, m["value"], m["unit"]))
            print("  %-30s %16.6g us (= sum of the layers)" %
                  ("span_us_per_op", layers["span_us_per_op"]))
            if layers["ops_with_broken_sum"]:
                print("run.py: %s: %d ops whose layers do not sum to the span"
                      % (w, layers["ops_with_broken_sum"]), file=sys.stderr)
                ok = False

    out = args.json or os.path.join(os.path.dirname(binary), "summary.json")
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)
    print("\nsummary: %s" % out)
    return 0 if ok else 1


def smoke(binary, spec):
    """Every workload at smoke size, per-layer count repeatability on the
    one-client workloads, and the oracle self-test."""
    problems = []
    small = ["--ops", "200", "--setup-reps", "1"]
    for w in [w["name"] for w in spec["workloads"]]:
        code, result = run_once(binary, w, DEFAULT_SEED, 1, False, small)
        lost = missing_metrics(result, spec["end_to_end"])
        if code != 0 or result is None or result["failed"] or lost:
            problems.append("%s: exit %d, result %s, missing %s" %
                            (w, code, result, lost))
    for w in ["serve-skewflip", "build-pgo", "serve-alloc"]:
        counts = []
        for _ in range(2):
            code, result = run_once(binary, w, DEFAULT_SEED, 1, True, small)
            lost = missing_metrics(result, spec["per_layer"])
            if code != 0 or result is None or lost:
                problems.append("traced %s: exit %d, missing %s" % (w, code, lost))
                break
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if v["unit"] in ("count", "bytes")})
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append("%s: per-layer counts differ between two runs" % w)
    for w in ["serve-casestudy", "build-pgo"]:
        code, result = run_once(binary, w, DEFAULT_SEED, 1, False,
                                ["--ops", "20", "--setup-reps", "1", "--self-test"])
        if code == 0 or result is None or not result["failed"]:
            problems.append("%s --self-test passed: exit %d, result %s" %
                            (w, code, result))
    for p in problems:
        print("run.py: smoke: " + p, file=sys.stderr)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", help="0|1 with --workload; a directory otherwise")
    ap.add_argument("--reps", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--build")
    ap.add_argument("--json")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(SPEC_PATH):
        fail("no " + SPEC_PATH)
    spec = load_spec()
    binary = ensure_built(build_dir(args.build))
    if args.smoke:
        return smoke(binary, spec)
    if args.workload:
        if args.trace not in (None, "0", "1"):
            fail("--trace must be 0 or 1 with --workload")
        seconds = args.seconds or spec["run_seconds"]
        code, result = run_once(binary, args.workload, args.seed, seconds,
                                args.trace == "1")
        if result is None:
            return code or 1
        print(json.dumps(result))
        return code
    return suite(args, binary, spec)


if __name__ == "__main__":
    sys.exit(main())
