#!/usr/bin/env bash
# Bench-driver smoke test: runs every bench executable at tiny scale with
# --jobs=2 and checks (a) it exits cleanly and (b) its persisted CSV and
# JSON are byte-identical to a --jobs=1 run — the driver-level half of the
# determinism contract the unit tests enforce at the engine level. It also
# runs the example programs and fails if one exits non-zero.
#
# Usage: scripts/bench_smoke.sh [build-dir]   (default: build)
set -u

BUILD_DIR="${1:-build}"
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT
FAILED=0

# driver + tiny arguments; every simulation driver gets short windows.
DRIVERS=(
  "table03_topology"
  "table04_mechanisms"
  "fig01_diameter_faults --side=4 --dims=2 --seeds=2 --step=8"
  "fig04_2d_faultfree --side=4 --warmup=200 --measure=400 --loads=0.5,1.0"
  "fig05_3d_faultfree --side=4 --warmup=150 --measure=300 --loads=0.5,1.0"
  "fig06_random_faults --side=4 --warmup=200 --measure=400 --steps=2 --max-faults=4"
  "fig08_2d_shapes --side=4 --warmup=200 --measure=400"
  "fig09_3d_shapes --side=4 --warmup=150 --measure=300"
  "fig10_completion --side=4 --phits=256 --bucket=500 --deadline=40000"
  "ablation_crout_policy --side=4 --warmup=200 --measure=400"
  "ablation_escape_mode --side=4 --warmup=200 --measure=400"
  "ablation_penalties --side=4 --warmup=200 --measure=400"
  "ablation_root --side=4 --warmup=150 --measure=300"
  "ablation_shortcuts --side=4 --warmup=200 --measure=400"
  "ablation_vcs --side=4 --warmup=150 --measure=300"
  "ext_dragonfly_escape"
  "ext_dynamic_faults --side=4 --warmup=500 --measure=2000 --faults=3"
  "ext_workloads --side=4 --sps=1 --msg-packets=2 --fault-fracs=0,0.05 --bucket=500"
  "ext_multitenant --side=4 --msg-packets=2 --fault-fracs=0,0.05 --mixes=pair --bucket=500"
)

for entry in "${DRIVERS[@]}"; do
  read -r driver args <<< "$entry"
  bin="$BUILD_DIR/$driver"
  if [[ ! -x "$bin" ]]; then
    echo "MISSING $driver (not built)"
    FAILED=1
    continue
  fi
  # shellcheck disable=SC2086  # word-splitting of $args is intended
  if ! "$bin" $args --jobs=2 \
        --csv="$WORK_DIR/$driver.csv" --json="$WORK_DIR/$driver.json" \
        > "$WORK_DIR/$driver.out" 2>&1; then
    echo "FAIL    $driver (non-zero exit)"
    tail -5 "$WORK_DIR/$driver.out"
    FAILED=1
    continue
  fi
  # shellcheck disable=SC2086
  "$bin" $args --jobs=1 \
      --csv="$WORK_DIR/$driver.1.csv" --json="$WORK_DIR/$driver.1.json" \
      > /dev/null 2>&1
  if ! cmp -s "$WORK_DIR/$driver.csv" "$WORK_DIR/$driver.1.csv" ||
     ! cmp -s "$WORK_DIR/$driver.json" "$WORK_DIR/$driver.1.json"; then
    echo "FAIL    $driver (--jobs=1 vs --jobs=2 output differs)"
    FAILED=1
    continue
  fi
  if [[ ! -s "$WORK_DIR/$driver.csv" || ! -s "$WORK_DIR/$driver.json" ]]; then
    echo "FAIL    $driver (empty persisted output)"
    FAILED=1
    continue
  fi
  echo "OK      $driver"
done

# Invariant auditor smoke (see sim/audit.cpp): re-run the fig06 grid with
# the audit enabled every 64 cycles — every incremental engine structure
# is recomputed from scratch and cross-checked, aborting on mismatch —
# and require the CSV to stay byte-identical to the audit-off run above
# (the auditor reads everything, mutates nothing).
if [[ -x "$BUILD_DIR/fig06_random_faults" && -s "$WORK_DIR/fig06_random_faults.csv" ]]; then
  if "$BUILD_DIR/fig06_random_faults" --side=4 --warmup=200 --measure=400 \
       --steps=2 --max-faults=4 --audit=64 --jobs=2 \
       --csv="$WORK_DIR/fig06_audit.csv" > "$WORK_DIR/fig06_audit.out" 2>&1 &&
     cmp -s "$WORK_DIR/fig06_audit.csv" "$WORK_DIR/fig06_random_faults.csv"; then
    echo "OK      invariant audit (--audit=64, CSV identical to audit-off)"
  else
    echo "FAIL    invariant audit (--audit=64)"
    tail -5 "$WORK_DIR/fig06_audit.out"
    FAILED=1
  fi
else
  echo "SKIP    invariant audit (fig06 driver or baseline CSV missing)"
fi

# Intra-run step-pool smoke (see Network::set_step_pool): re-run the
# workload grid with --step-threads=2 — candidate precompute and
# link-phase collect fan out across the pool — and require the CSV
# byte-identical to the serial-step run above. This is the driver-level
# check of the "bit-identical at every thread count" engine contract, on
# a task kind that exercises Consume callbacks.
if [[ -x "$BUILD_DIR/ext_workloads" && -s "$WORK_DIR/ext_workloads.csv" ]]; then
  if "$BUILD_DIR/ext_workloads" --side=4 --sps=1 --msg-packets=2 \
       --fault-fracs=0,0.05 --bucket=500 --jobs=2 --step-threads=2 \
       --csv="$WORK_DIR/ext_workloads_sp.csv" \
       > "$WORK_DIR/ext_workloads_sp.out" 2>&1 &&
     cmp -s "$WORK_DIR/ext_workloads_sp.csv" "$WORK_DIR/ext_workloads.csv"; then
    echo "OK      step pool (--step-threads=2, CSV identical to serial step)"
  else
    echo "FAIL    step pool (--step-threads=2)"
    tail -5 "$WORK_DIR/ext_workloads_sp.out"
    FAILED=1
  fi
else
  echo "SKIP    step pool (ext_workloads driver or baseline CSV missing)"
fi

# Telemetry smoke (see src/telemetry/): re-run the fig06 grid with the
# whole telemetry surface on — windowed registry, packet tracer, flight
# recorder — and require the result CSV byte-identical to the baseline:
# telemetry observes, it never perturbs (rows go to a separate artefact).
# An in-process run keeps no capture, so the driver must say so.
if [[ -x "$BUILD_DIR/fig06_random_faults" && -s "$WORK_DIR/fig06_random_faults.csv" ]]; then
  if "$BUILD_DIR/fig06_random_faults" --side=4 --warmup=200 --measure=400 \
       --steps=2 --max-faults=4 --telemetry-window=64 --trace-sample=4 \
       --flight-recorder=64 --jobs=2 \
       --csv="$WORK_DIR/fig06_telem.csv" > "$WORK_DIR/fig06_telem.out" 2>&1 &&
     cmp -s "$WORK_DIR/fig06_telem.csv" "$WORK_DIR/fig06_random_faults.csv" &&
     grep -q "record nothing in an in-process run" "$WORK_DIR/fig06_telem.out"; then
    echo "OK      telemetry (all knobs on, CSV identical to telemetry-off, note printed)"
  else
    echo "FAIL    telemetry (telemetry-on CSV differs or run failed)"
    tail -5 "$WORK_DIR/fig06_telem.out"
    FAILED=1
  fi
else
  echo "SKIP    telemetry (fig06 driver or baseline CSV missing)"
fi

# Telemetry export smoke: a tiny faulted fig06 grid through hxsp_runner
# with every artefact requested — the telemetry CSV parses as a result
# CSV, the Chrome trace validates as JSON (what chrome://tracing and
# Perfetto consume), and the JSONL is non-empty.
if [[ -x "$BUILD_DIR/fig06_random_faults" && -x "$BUILD_DIR/hxsp_runner" ]] \
     && command -v python3 > /dev/null; then
  if "$BUILD_DIR/fig06_random_faults" --side=4 --warmup=200 --measure=400 \
       --steps=1 --max-faults=2 --telemetry-window=64 --trace-sample=8 \
       --flight-recorder=64 \
       --emit-tasks="$WORK_DIR/telem_manifest.json" > /dev/null 2>&1 &&
     "$BUILD_DIR/hxsp_runner" "$WORK_DIR/telem_manifest.json" --jobs=2 \
       --csv="$WORK_DIR/telem_results.csv" \
       --telemetry-csv="$WORK_DIR/telem.csv" \
       --trace-out="$WORK_DIR/telem_trace.json" \
       --trace-jsonl="$WORK_DIR/telem_trace.jsonl" --quiet > /dev/null 2>&1 &&
     [[ -s "$WORK_DIR/telem.csv" && -s "$WORK_DIR/telem_trace.jsonl" ]] &&
     grep -q ",telemetry," "$WORK_DIR/telem.csv" &&
     python3 -m json.tool "$WORK_DIR/telem_trace.json" > /dev/null 2>&1; then
    echo "OK      telemetry export (--telemetry-csv/--trace-out/--trace-jsonl)"
  else
    echo "FAIL    telemetry export"
    FAILED=1
  fi
else
  echo "SKIP    telemetry export (fig06, hxsp_runner or python3 missing)"
fi

# Trace replay end to end: generate a JSONL trace with make_trace.py,
# emit a workload-task manifest referencing it, and replay it through
# hxsp_runner — the whole "record somewhere, replay here" pipeline.
if command -v python3 > /dev/null; then
  if python3 "$SCRIPT_DIR/make_trace.py" --servers=16 --phases=3 \
       --packets=2 --kind=ring --out="$WORK_DIR/trace.jsonl" \
       2> /dev/null &&
     "$BUILD_DIR/ext_workloads" --side=4 --sps=1 --workloads=trace \
       --trace="$WORK_DIR/trace.jsonl" --fault-fracs=0,0.05 --bucket=500 \
       --emit-tasks="$WORK_DIR/trace_manifest.json" > /dev/null &&
     "$BUILD_DIR/hxsp_runner" "$WORK_DIR/trace_manifest.json" --jobs=1 \
       --csv="$WORK_DIR/trace_replay.csv" --quiet > /dev/null &&
     [[ -s "$WORK_DIR/trace_replay.csv" ]] &&
     grep -q ",workload," "$WORK_DIR/trace_replay.csv"; then
    echo "OK      trace replay (make_trace.py -> hxsp_runner)"
  else
    echo "FAIL    trace replay (make_trace.py -> hxsp_runner)"
    FAILED=1
  fi
else
  echo "SKIP    trace replay (no python3)"
fi

# The example programs run end to end at their built-in scale (a few
# seconds in total); each must exit cleanly.
for example in quickstart custom_topology fault_drill completion_race; do
  if [[ ! -x "$BUILD_DIR/$example" ]]; then
    echo "MISSING $example (not built)"
    FAILED=1
  elif "$BUILD_DIR/$example" > "$WORK_DIR/$example.out" 2>&1; then
    echo "OK      $example"
  else
    echo "FAIL    $example (non-zero exit)"
    tail -5 "$WORK_DIR/$example.out"
    FAILED=1
  fi
done

# micro_engine is a Google Benchmark binary (present only when the library
# is installed); every microbenchmark runs once at a tiny minimum time, so
# none of them can rot unnoticed.
if [[ -x "$BUILD_DIR/micro_engine" ]]; then
  if "$BUILD_DIR/micro_engine" --benchmark_min_time=0.01 \
       > "$WORK_DIR/micro_engine.out" 2>&1; then
    echo "OK      micro_engine"
  else
    echo "FAIL    micro_engine"
    tail -5 "$WORK_DIR/micro_engine.out"
    FAILED=1
  fi
else
  echo "SKIP    micro_engine (Google Benchmark not installed)"
fi

exit $FAILED
