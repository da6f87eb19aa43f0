#!/usr/bin/env python3
"""Runs the repository benchmark once run.sh has built it.

BENCHMARK.json's command is invoked once per workload as
  <command> --workload W --seed N --seconds S --trace 0|1
where S is always run_seconds of BENCHMARK.json; another value is refused,
so every run measures for the same time. Without --workload all four
workloads run in turn.

Each rep is a fresh hxsp_bench process, and reps of one workload run one
after another, never side by side. Without --trace the reps are untraced
and repeat until run_seconds have been spent (at least MIN_REPS of them);
the end-to-end metrics are their medians. With --trace 1 the run is two
probe processes (run_task with telemetry off, then on), one traced rep
and, for a workload that steps on a thread pool, one serial rep; the
per-layer metrics come from those.

Every rep of a workload must report the same fingerprint of its simulated
outputs, and a failed rep counts in "failed". The last line on stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Results,
inputs, traces and CSVs go under benchmark/build/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "build", "out")

# Why each workload is in the benchmark: see README.md. "jobs" and
# "threads" say whether the workload runs its sweep on worker threads or
# steps each simulation on a thread pool; both use min(4, nproc) threads.
WORKLOADS = {
    "fig06_sweep": {"jobs": True, "threads": False},
    "paper2d_sat": {"jobs": False, "threads": False},
    "paper3d_allreduce": {"jobs": False, "threads": False},
    "million_min": {"jobs": False, "threads": True},
}

# fig06_random_faults' reduced grid: 70 tasks, at shortened windows.
SWEEP_ARGS = ["--steps=4", "--warmup=500", "--measure=1000"]
SWEEP_SMOKE_ARGS = ["--steps=1", "--dims=2", "--warmup=100", "--measure=200"]

MIN_REPS = 3
SMOKE_REPS = 2
REP_TIMEOUT_S = 150


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parallelism():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return nproc, min(4, nproc)


def run_json(args, timeout=REP_TIMEOUT_S):
    """Runs one process to completion; returns (its last stdout line parsed
    as JSON, None) or (None, why it failed)."""
    try:
        p = subprocess.run(args, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timed out after %ds" % timeout
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        return None, "exit code %d" % p.returncode
    lines = p.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, ValueError):
        return None, "no JSON result"


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class Bench:
    def __init__(self, build, smoke):
        self.bin = os.path.join(build, "hxsp_bench")
        self.fig06 = os.path.join(build, "hxsp", "fig06_random_faults")
        self.smoke = smoke
        info, err = run_json([self.bin, "info"])
        if info is None:
            sys.exit("hxsp_bench info failed: %s" % err)
        if info["build_type"] != "Release":
            sys.exit("refusing to measure a %s build; the benchmark times "
                     "Release builds only" % info["build_type"])
        nproc, par = parallelism()
        self.par = par
        self.provenance = {
            "nproc": nproc,
            "cpu": cpu_model(),
            "compiler": info["compiler"],
            "build_type": info["build_type"],
            "git_commit": git_commit(),
        }
        for sub in ("inputs", "results", "traces", "scratch"):
            os.makedirs(os.path.join(OUT, sub), exist_ok=True)

    def tag(self, workload, seed):
        return "%s-seed%d%s" % (workload, seed, "-smoke" if self.smoke else "")

    def emit(self, workload, seed):
        """Writes the workload's input for this seed; returns its path."""
        path = os.path.join(OUT, "inputs", self.tag(workload, seed) + ".json")
        if workload == "fig06_sweep":
            args = [self.fig06, "--seed=%d" % seed, "--emit-tasks=" + path]
            args += SWEEP_SMOKE_ARGS if self.smoke else SWEEP_ARGS
        else:
            args = [self.bin, "emit", "--workload=" + workload,
                    "--seed=%d" % seed, "--out=" + path]
            if self.smoke:
                args.append("--smoke")
        subprocess.run(args, check=True, stdout=subprocess.DEVNULL, timeout=120)
        return path

    def knobs(self, workload):
        w = WORKLOADS[workload]
        return {"jobs": self.par if w["jobs"] else 1,
                "threads": self.par if w["threads"] else 0}

    def proc_args(self, cmd, inp, **flags):
        return [self.bin, cmd, "--input=" + inp] + [
            "--%s=%s" % kv for kv in flags.items()]


def run_untraced(bench, workload, seed, seconds, e2e):
    inp = bench.emit(workload, seed)
    knobs = bench.knobs(workload)
    csv = os.path.join(OUT, "scratch", bench.tag(workload, seed) + ".csv")
    reps, failures = [], []
    min_reps = SMOKE_REPS if bench.smoke else MIN_REPS
    start = time.monotonic()
    while True:
        res, err = run_json(bench.proc_args("rep", inp, csv=csv, **knobs))
        if res is None:
            failures.append(err)
        elif not res["drained"]:
            failures.append("did not drain before its deadline")
        elif not (res["accepted_load"] > 0 and res["sim_packets"] > 0):
            failures.append("delivered nothing")
        else:
            reps.append(res)
        attempted = len(reps) + len(failures)
        elapsed = time.monotonic() - start
        if attempted >= min_reps and (bench.smoke or
                                      elapsed * (attempted + 1) / attempted > seconds):
            break
    prints = sorted({r["fingerprint"] for r in reps})
    problems = ["rep failed: " + f for f in failures]
    if len(prints) > 1:
        problems.append("reps disagree: fingerprints " + ", ".join(prints))
    metrics = {m["name"]: statistics.median(r[m["name"]] for r in reps)
               for m in e2e} if reps else {}
    return {
        "workload": workload, "seed": seed, "trace": 0, "knobs": knobs,
        "input": os.path.relpath(inp, ROOT),
        "attempted": attempted, "failed": len(failures),
        "fingerprint": prints[0] if len(prints) == 1 else None,
        "reps": reps, "metrics": metrics, "problems": problems,
    }


def self_time_table(self_s):
    total = sum(self_s.values()) or 1.0
    rows = ["%-10s %12s %7s" % ("layer", "self_s", "share")]
    for layer, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
        rows.append("%-10s %12.6f %6.1f%%" % (layer, s, 100.0 * s / total))
    return "\n".join(rows) + "\n"


def run_traced(bench, workload, seed):
    inp = bench.emit(workload, seed)
    knobs = bench.knobs(workload)
    tag = bench.tag(workload, seed)
    spans = os.path.join(OUT, "traces", tag + ".trace.json")
    problems, runs = [], []

    def run(what, args):
        res, err = run_json(args)
        runs.append(res is not None)
        if res is None:
            problems.append("%s failed: %s" % (what, err))
        return res

    probe = run("probe", bench.proc_args("probe", inp, threads=knobs["threads"]))
    observed = run("telemetry probe", bench.proc_args(
        "probe", inp, threads=knobs["threads"], telemetry=1))
    trace = run("traced rep", bench.proc_args(
        "trace", inp, spans=spans,
        csv=os.path.join(OUT, "scratch", tag + "-trace.csv"), **knobs))
    serial = None
    if knobs["threads"] > 0:
        serial = run("serial rep", bench.proc_args(
            "rep", inp, jobs=knobs["jobs"], threads=0))

    layers = {}
    if probe and observed and trace:
        if probe["task_fingerprints"] != trace["task_fingerprints"]:
            problems.append("traced tasks disagree with untraced run_task")
        if probe["task_fingerprints"] != observed["task_fingerprints"]:
            problems.append("telemetry changed a simulated result")
        if serial and serial["fingerprint"] != trace["fingerprint"]:
            problems.append("serial and pooled stepping disagree")
        if not trace["drained"]:
            problems.append("traced rep did not drain")
        off, on = probe["task_s"], observed["task_s"]
        layers = dict(trace["layers"])
        layers["harness.task_p50_s"] = statistics.median(off)
        layers["harness.task_max_s"] = max(off)
        layers["telemetry.on_over_off"] = sum(on) / sum(off)
        layers["trace.overhead_frac"] = trace["task_s"] / sum(off) - 1.0
        with open(os.path.join(OUT, "traces", tag + ".selftime.txt"), "w") as f:
            f.write(self_time_table(trace["self_s"]))
    return {
        "workload": workload, "seed": seed, "trace": 1, "knobs": knobs,
        "input": os.path.relpath(inp, ROOT),
        "attempted": len(runs), "failed": runs.count(False),
        "fingerprint": trace["fingerprint"] if trace else None,
        "probe": probe, "telemetry_probe": observed, "traced": trace,
        "serial": serial,
        "chrome_trace": os.path.relpath(spans, ROOT),
        "metrics": layers, "problems": problems,
    }


def report(result, defs):
    """Prints one workload's metrics by name and unit, with the spread of
    the reps behind each median."""
    w = result["workload"]
    print("== %s (seed %d, %d attempted, %d failed)" %
        (w, result["seed"], result["attempted"], result["failed"]))
    for d in defs:
        name = d["name"]
        if name not in result["metrics"]:
            continue
        line = "  %-26s %14.6g %-14s" % (name, result["metrics"][name], d["unit"])
        reps = result.get("reps") or []
        if len(reps) >= 2:
            q = statistics.quantiles([r[name] for r in reps], n=4)
            line += " (q1 %.6g, q3 %.6g over %d reps)" % (q[0], q[2], len(reps))
        print(line)
    if result.get("traced"):
        t = result["traced"]
        print("  set-up layers cover %.1f%% of set-up; step phases cover %.1f%% of stepping"
            % (100 * t["setup_layers_s"] / t["setup_s"],
               100 * t["step_phases_s"] / t["step_s"]))
        print("  chrome trace: " + result["chrome_trace"])
        print(self_time_table(t["self_s"]).rstrip())
    for p in result["problems"]:
        print("  PROBLEM: " + p)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--build", required=True, help="the CMake build directory")
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload (default: all four, in order)")
    ap.add_argument("--seed", type=int, default=1,
                    help="input seed (default 1; seed 2 is held out for claims)")
    ap.add_argument("--seconds", type=float,
                    help="must equal run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and %d reps: checks the plumbing only" % SMOKE_REPS)
    ap.add_argument("--out", help="also write the whole set's results here")
    args = ap.parse_args()

    s = spec()
    seconds = s["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        sys.exit("--seconds %g: every run measures for run_seconds = %d of "
                 "BENCHMARK.json" % (args.seconds, seconds))
    defs = s["per_layer"] if args.trace else s["end_to_end"]
    bench = Bench(args.build, args.smoke)
    workloads = [args.workload] if args.workload else list(WORKLOADS)

    results = {}
    for w in workloads:
        if args.trace:
            r = run_traced(bench, w, args.seed)
        else:
            r = run_untraced(bench, w, args.seed, seconds, s["end_to_end"])
        r["provenance"] = bench.provenance
        path = os.path.join(OUT, "results", "%s-trace%d.json" %
                            (bench.tag(w, args.seed), args.trace))
        with open(path, "w") as f:
            json.dump(r, f, indent=1)
        report(r, defs)
        results[w] = r

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"provenance": bench.provenance, "seed": args.seed,
                       "trace": args.trace, "workloads": results}, f, indent=1)

    single = len(workloads) == 1
    metrics = {}
    for w, r in results.items():
        for d in defs:
            if d["name"] in r["metrics"]:
                key = d["name"] if single else "%s.%s" % (w, d["name"])
                metrics[key] = {"value": r["metrics"][d["name"]], "unit": d["unit"]}
    complete = all(d["name"] in r["metrics"] for r in results.values() for d in defs)
    correct = complete and not any(r["problems"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
