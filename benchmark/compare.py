#!/usr/bin/env python3
"""Compares two benchmark result files, A (the base) and B (the change).

    benchmark/compare.py A.json B.json

Each file is a set written by `run.sh --out FILE` or one workload's
result from benchmark/build/out/results/. For every workload in both files and
every end-to-end metric of BENCHMARK.json, prints each side's median and
quartiles over its reps and judges B against A with the metric's bound:

  ok          B's median is not worse than A's by more than the bound
  REGRESSION  B's median is worse by more than the bound
  unresolved  one side's own spread (q3 - q1) / median exceeds the bound,
              so the run-to-run noise hides a change of that size; it is
              still called better or REGRESSION when every rep of B reads
              better, or worse, than every rep of A

Exits 1 when any metric regressed, 0 otherwise.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """Returns {workload: result} for a set file or a single result."""
    with open(path) as f:
        data = json.load(f)
    if "workloads" in data:
        return data["workloads"]
    return {data["workload"]: data}


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3


def judge(defn, a, b):
    lower = defn["better"] == "lower"
    bound = defn["bound"]
    ma, qa1, qa3 = summary(a)
    mb, qb1, qb3 = summary(b)
    change = (mb - ma) / ma if ma else 0.0
    worse = change > bound if lower else change < -bound
    noisy = any(m and (q3 - q1) / abs(m) > bound
                for m, q1, q3 in ((ma, qa1, qa3), (mb, qb1, qb3)))
    status = "REGRESSION" if worse else "ok"
    if noisy:
        b_better = max(b) < min(a) if lower else min(b) > max(a)
        b_worse = min(b) > max(a) if lower else max(b) < min(a)
        status = "better" if b_better else "REGRESSION" if worse and b_worse else "unresolved"
    return (ma, qa1, qa3), (mb, qb1, qb3), change, status


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        defs = json.load(f)["end_to_end"]
    a, b = load(sys.argv[1]), load(sys.argv[2])

    regressions = 0
    print("%-18s %-19s %-31s %-31s %8s %6s  %s" %
          ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
           "change", "bound", "status"))
    for w in [w for w in a if w in b]:
        ra, rb = a[w], b[w]
        if ra.get("seed") != rb.get("seed"):
            print("%s: A ran seed %s, B seed %s; inputs differ" %
                  (w, ra.get("seed"), rb.get("seed")))
        if ra.get("fingerprint") != rb.get("fingerprint"):
            print("%s: simulated outputs differ (fingerprint %s vs %s)" %
                  (w, ra.get("fingerprint"), rb.get("fingerprint")))
        for d in defs:
            va = [r[d["name"]] for r in ra.get("reps", [])]
            vb = [r[d["name"]] for r in rb.get("reps", [])]
            if not va or not vb:
                continue
            sa, sb, change, status = judge(d, va, vb)
            regressions += status == "REGRESSION"
            print("%-18s %-19s %-31s %-31s %+7.1f%% %5.0f%%  %s" % (
                w, d["name"],
                "%.5g [%.5g, %.5g] %s" % (sa + (d["unit"],)),
                "%.5g [%.5g, %.5g] %s" % (sb + (d["unit"],)),
                100 * change, 100 * d["bound"], status))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
