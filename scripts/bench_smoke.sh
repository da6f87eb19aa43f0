#!/usr/bin/env bash
# Bench-driver smoke test: runs every bench executable at tiny scale with
# --jobs=2 and checks (a) it exits cleanly, (b) its persisted CSV is
# byte-identical to a --jobs=1 run — the driver-level half of the
# determinism contract the unit tests enforce at the engine level — and
# (c) for every driver that emits a task grid, the CSV equals what
# hxsp_runner writes for the driver's --emit-tasks manifest. It also
# checks that a driver whose CSV cannot be written or whose integer flag
# does not fit its field exits non-zero, that hxsp_runner rejects an
# out-of-range fault link id and escape penalty, a negative warmup, a
# dynamic fault due before cycle 0, a negative offered load, a zero series
# bucket width and an integer that does not fit its field (a trace src, a
# fault link), prints
# where the hot step functions landed, and runs the example programs and
# fails if one exits non-zero.
#
# Usage: scripts/bench_smoke.sh [build-dir]   (default: build)
set -u

BUILD_DIR="${1:-build}"
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT
FAILED=0

RUNNER="$BUILD_DIR/hxsp_runner"
if [[ ! -x "$RUNNER" ]]; then
  echo "MISSING hxsp_runner (not built)"
  FAILED=1
fi

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

# Pure-graph drivers: their measurements are not TaskSpecs, so their
# --emit-tasks manifest is empty and there is no runner CSV to compare.
GRAPH_DRIVERS=" table03_topology table04_mechanisms fig01_diameter_faults ext_dragonfly_escape "

for entry in "${DRIVERS[@]}"; do
  read -r driver args <<< "$entry"
  bin="$BUILD_DIR/$driver"
  if [[ ! -x "$bin" ]]; then
    echo "MISSING $driver (not built)"
    FAILED=1
    continue
  fi
  # shellcheck disable=SC2086  # word-splitting of $args is intended
  if ! "$bin" $args --jobs=2 --csv="$WORK_DIR/$driver.csv" \
        > "$WORK_DIR/$driver.out" 2>&1; then
    echo "FAIL    $driver (non-zero exit)"
    tail -5 "$WORK_DIR/$driver.out"
    FAILED=1
    continue
  fi
  # shellcheck disable=SC2086
  "$bin" $args --jobs=1 --csv="$WORK_DIR/$driver.1.csv" > /dev/null 2>&1
  if ! cmp -s "$WORK_DIR/$driver.csv" "$WORK_DIR/$driver.1.csv"; then
    echo "FAIL    $driver (--jobs=1 vs --jobs=2 output differs)"
    FAILED=1
    continue
  fi
  if [[ ! -s "$WORK_DIR/$driver.csv" ]]; then
    echo "FAIL    $driver (empty persisted output)"
    FAILED=1
    continue
  fi
  if [[ "$GRAPH_DRIVERS" != *" $driver "* ]]; then
    # shellcheck disable=SC2086
    if ! "$bin" $args --emit-tasks 2> /dev/null |
         "$RUNNER" - --jobs=2 --csv="$WORK_DIR/$driver.runner.csv" --quiet \
           > /dev/null 2>&1 ||
       ! cmp -s "$WORK_DIR/$driver.csv" "$WORK_DIR/$driver.runner.csv"; then
      echo "FAIL    $driver (driver CSV != hxsp_runner CSV of its manifest)"
      FAILED=1
      continue
    fi
    echo "OK      $driver (jobs=1 == jobs=2 == runner)"
  else
    echo "OK      $driver (jobs=1 == jobs=2)"
  fi
done

# A result file that cannot be written must fail the driver, so a script
# running it sees the failure instead of a missing artefact.
if [[ -x "$BUILD_DIR/table03_topology" ]]; then
  if "$BUILD_DIR/table03_topology" --csv="$WORK_DIR/no_such_dir/x.csv" \
       > "$WORK_DIR/persist_fail.out" 2>&1; then
    echo "FAIL    unwritable --csv (driver exited 0)"
    FAILED=1
  else
    echo "OK      unwritable --csv (driver exits non-zero)"
  fi
fi

# An integer flag that does not fit its field must fail naming the flag:
# --side=4294967298 (2^32 + 2) used to emit a 2x2 HyperX.
if [[ -x "$BUILD_DIR/fig04_2d_faultfree" ]]; then
  if "$BUILD_DIR/fig04_2d_faultfree" --side=4294967298 \
       --emit-tasks="$WORK_DIR/side_alias.json" \
       > "$WORK_DIR/side_alias.out" 2>&1; then
    echo "FAIL    2^32-aliased --side (driver exited 0)"
    FAILED=1
  elif ! grep -q -- "--side = 4294967298 is not an integer in" \
         "$WORK_DIR/side_alias.out"; then
    echo "FAIL    2^32-aliased --side (no flag name in the message)"
    tail -5 "$WORK_DIR/side_alias.out"
    FAILED=1
  else
    echo "OK      2^32-aliased --side (driver exits non-zero, names the flag)"
  fi
fi

# A fault link id outside the fabric must fail at the input boundary with a
# message naming the key path, not index past the link tables: one fig06
# task whose first fault is set to the grid's link count (4x4: 48 links).
if [[ -x "$BUILD_DIR/fig06_random_faults" && -x "$RUNNER" ]] &&
   command -v python3 > /dev/null; then
  "$BUILD_DIR/fig06_random_faults" --side=4 --warmup=200 --measure=400 \
    --steps=2 --max-faults=4 --emit-tasks="$WORK_DIR/fig06_tasks.json" \
    > /dev/null 2>&1
  python3 - "$WORK_DIR/fig06_tasks.json" "$WORK_DIR/hostile_task.json" <<'PY'
import json, sys
task = next(t for t in json.load(open(sys.argv[1])) if t["spec"]["fault_links"])
sides = task["spec"]["sides"]
switches = 1
for k in sides:
    switches *= k
task["spec"]["fault_links"][0] = sum(switches * (k - 1) // 2 for k in sides)
json.dump([task], open(sys.argv[2], "w"))
PY
  # The runner aborts, so the shell prints an "Aborted" notice here.
  if "$RUNNER" "$WORK_DIR/hostile_task.json" --jobs=1 \
       --csv="$WORK_DIR/hostile.csv" --quiet > "$WORK_DIR/hostile.out" 2>&1; then
    echo "FAIL    out-of-range fault link (hxsp_runner exited 0)"
    FAILED=1
  elif ! grep -q "spec.fault_links\[0\] = 48 is not a link id" \
         "$WORK_DIR/hostile.out"; then
    echo "FAIL    out-of-range fault link (no key-path message)"
    tail -5 "$WORK_DIR/hostile.out"
    FAILED=1
  else
    echo "OK      out-of-range fault link (hxsp_runner exits non-zero, names the key)"
  fi

  # Likewise an escape penalty outside [0, 32767]: it is added to queue
  # scores in int arithmetic, which INT_MAX overflows.
  python3 - "$WORK_DIR/fig06_tasks.json" "$WORK_DIR/hostile_penalty.json" <<'PY'
import json, sys
task = json.load(open(sys.argv[1]))[0]
task["spec"]["escape_penalties"]["up"] = 2147483647
json.dump([task], open(sys.argv[2], "w"))
PY
  if "$RUNNER" "$WORK_DIR/hostile_penalty.json" --jobs=1 \
       --csv="$WORK_DIR/hostile_penalty.csv" --quiet \
       > "$WORK_DIR/hostile_penalty.out" 2>&1; then
    echo "FAIL    out-of-range escape penalty (hxsp_runner exited 0)"
    FAILED=1
  elif ! grep -q "spec.escape_penalties.up = 2147483647 is outside \[0, 32767\]" \
         "$WORK_DIR/hostile_penalty.out"; then
    echo "FAIL    out-of-range escape penalty (no key-path message)"
    tail -5 "$WORK_DIR/hostile_penalty.out"
    FAILED=1
  else
    echo "OK      out-of-range escape penalty (hxsp_runner exits non-zero, names the key)"
  fi

  # An integer that does not fit its field must not narrow to a valid
  # value: the first fault link plus 2^32 used to run as that link.
  python3 - "$WORK_DIR/fig06_tasks.json" "$WORK_DIR/hostile_alias.json" <<'PY'
import json, sys
task = next(t for t in json.load(open(sys.argv[1])) if t["spec"]["fault_links"])
task["spec"]["fault_links"][0] += 2 ** 32
json.dump([task], open(sys.argv[2], "w"))
PY
  if "$RUNNER" "$WORK_DIR/hostile_alias.json" --jobs=1 \
       --csv="$WORK_DIR/hostile_alias.csv" --quiet \
       > "$WORK_DIR/hostile_alias.out" 2>&1; then
    echo "FAIL    2^32-aliased fault link (hxsp_runner exited 0)"
    FAILED=1
  elif ! grep -q "spec.fault_links\[0\] = [0-9]* is not an integer in \[-2147483648, 2147483647\]" \
         "$WORK_DIR/hostile_alias.out"; then
    echo "FAIL    2^32-aliased fault link (no key-path message)"
    tail -5 "$WORK_DIR/hostile_alias.out"
    FAILED=1
  else
    echo "OK      2^32-aliased fault link (hxsp_runner exits non-zero, names the key)"
  fi

  # A negative warmup must fail at the spec boundary, naming the key,
  # instead of running as 0.
  python3 - "$WORK_DIR/fig06_tasks.json" "$WORK_DIR/hostile_warmup.json" <<'PY'
import json, sys
task = json.load(open(sys.argv[1]))[0]
task["spec"]["warmup"] = -10
json.dump([task], open(sys.argv[2], "w"))
PY
  if "$RUNNER" "$WORK_DIR/hostile_warmup.json" --jobs=1 \
       --csv="$WORK_DIR/hostile_warmup.csv" --quiet \
       > "$WORK_DIR/hostile_warmup.out" 2>&1; then
    echo "FAIL    negative warmup (hxsp_runner exited 0)"
    FAILED=1
  elif ! grep -q "spec.warmup = -10 is below 0" "$WORK_DIR/hostile_warmup.out"; then
    echo "FAIL    negative warmup (no key-path message)"
    tail -5 "$WORK_DIR/hostile_warmup.out"
    FAILED=1
  else
    echo "OK      negative warmup (hxsp_runner exits non-zero, names the key)"
  fi

  # A dynamic fault due before cycle 0 must fail naming the key instead of
  # firing at cycle 0.
  python3 - "$WORK_DIR/fig06_tasks.json" "$WORK_DIR/hostile_at.json" <<'PY'
import json, sys
task = json.load(open(sys.argv[1]))[0]
task["kind"] = "dynamic"
task["events"] = [{"at": -5, "link": 0}]
json.dump([task], open(sys.argv[2], "w"))
PY
  if "$RUNNER" "$WORK_DIR/hostile_at.json" --jobs=1 \
       --csv="$WORK_DIR/hostile_at.csv" --quiet \
       > "$WORK_DIR/hostile_at.out" 2>&1; then
    echo "FAIL    negative fault cycle (hxsp_runner exited 0)"
    FAILED=1
  elif ! grep -q "events\[0\].at = -5 is below 0" "$WORK_DIR/hostile_at.out"; then
    echo "FAIL    negative fault cycle (no key-path message)"
    tail -5 "$WORK_DIR/hostile_at.out"
    FAILED=1
  else
    echo "OK      negative fault cycle (hxsp_runner exits non-zero, names the key)"
  fi

  # A negative offered load and a zero-cycle series bucket must fail at
  # the task's entry point naming the key, not deep inside the server or
  # the time series.
  python3 - "$WORK_DIR/fig06_tasks.json" "$WORK_DIR/hostile_offered.json" <<'PY'
import json, sys
task = json.load(open(sys.argv[1]))[0]
task["offered"] = -0.5
json.dump([task], open(sys.argv[2], "w"))
PY
  if "$RUNNER" "$WORK_DIR/hostile_offered.json" --jobs=1 \
       --csv="$WORK_DIR/hostile_offered.csv" --quiet \
       > "$WORK_DIR/hostile_offered.out" 2>&1; then
    echo "FAIL    negative offered load (hxsp_runner exited 0)"
    FAILED=1
  elif ! grep -q "offered = -0.5 is below 0" "$WORK_DIR/hostile_offered.out"; then
    echo "FAIL    negative offered load (no key-path message)"
    tail -5 "$WORK_DIR/hostile_offered.out"
    FAILED=1
  else
    echo "OK      negative offered load (hxsp_runner exits non-zero, names the key)"
  fi

  python3 - "$WORK_DIR/fig06_tasks.json" "$WORK_DIR/hostile_bucket.json" <<'PY'
import json, sys
task = json.load(open(sys.argv[1]))[0]
task["kind"] = "completion"
task["packets_per_server"] = 1
task["max_cycles"] = 1000
task["bucket_width"] = 0
json.dump([task], open(sys.argv[2], "w"))
PY
  if "$RUNNER" "$WORK_DIR/hostile_bucket.json" --jobs=1 \
       --csv="$WORK_DIR/hostile_bucket.csv" --quiet \
       > "$WORK_DIR/hostile_bucket.out" 2>&1; then
    echo "FAIL    zero bucket width (hxsp_runner exited 0)"
    FAILED=1
  elif ! grep -q "bucket_width = 0 is below 1" "$WORK_DIR/hostile_bucket.out"; then
    echo "FAIL    zero bucket width (no key-path message)"
    tail -5 "$WORK_DIR/hostile_bucket.out"
    FAILED=1
  else
    echo "OK      zero bucket width (hxsp_runner exits non-zero, names the key)"
  fi
else
  echo "SKIP    out-of-range fault link, escape penalty, warmup, fault cycle, offered load and bucket width (fig06, hxsp_runner or python3 missing)"
fi

# Where the step loop's hot functions landed (see scripts/hot_symbols.sh),
# printed for the record: their offset mod 64 can move wall time.
if [[ -x "$RUNNER" ]]; then
  if "$SCRIPT_DIR/hot_symbols.sh" "$RUNNER"; then
    echo "OK      hot_symbols.sh"
  else
    echo "FAIL    hot_symbols.sh"
    FAILED=1
  fi
fi

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

# Intra-run step-pool smoke (see Network::set_step_pool): run the
# workload grid's manifest through hxsp_runner --step-threads=2 — the
# link-phase collect fans out across the pool — and require the CSV
# byte-identical to the serial-step driver run above.
# This is the end-to-end check of the "bit-identical at every thread
# count" engine contract, on a task kind that exercises Consume callbacks.
if [[ -x "$BUILD_DIR/ext_workloads" && -x "$RUNNER" &&
      -s "$WORK_DIR/ext_workloads.csv" ]]; then
  if "$BUILD_DIR/ext_workloads" --side=4 --sps=1 --msg-packets=2 \
       --fault-fracs=0,0.05 --bucket=500 \
       --emit-tasks="$WORK_DIR/ext_workloads_tasks.json" \
       > "$WORK_DIR/ext_workloads_sp.out" 2>&1 &&
     "$RUNNER" "$WORK_DIR/ext_workloads_tasks.json" --jobs=2 \
       --step-threads=2 --csv="$WORK_DIR/ext_workloads_sp.csv" --quiet \
       >> "$WORK_DIR/ext_workloads_sp.out" 2>&1 &&
     cmp -s "$WORK_DIR/ext_workloads_sp.csv" "$WORK_DIR/ext_workloads.csv"; then
    echo "OK      step pool (hxsp_runner --step-threads=2, CSV identical to serial step)"
  else
    echo "FAIL    step pool (hxsp_runner --step-threads=2)"
    tail -5 "$WORK_DIR/ext_workloads_sp.out"
    FAILED=1
  fi
else
  echo "SKIP    step pool (ext_workloads, hxsp_runner or baseline CSV missing)"
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

# Likewise a trace whose src is 2^32 + 1 must fail naming the line and key,
# not replay as server 1.
if [[ -x "$BUILD_DIR/ext_workloads" && -x "$RUNNER" ]]; then
  echo '{"src":4294967297,"dst":0,"packets":1,"phase":0}' \
    > "$WORK_DIR/hostile_trace.jsonl"
  "$BUILD_DIR/ext_workloads" --side=4 --sps=1 --workloads=trace \
    --trace="$WORK_DIR/hostile_trace.jsonl" --fault-fracs=0 --bucket=500 \
    --emit-tasks="$WORK_DIR/hostile_trace_tasks.json" > /dev/null 2>&1
  if "$RUNNER" "$WORK_DIR/hostile_trace_tasks.json" --jobs=1 \
       --csv="$WORK_DIR/hostile_trace.csv" --quiet \
       > "$WORK_DIR/hostile_trace.out" 2>&1; then
    echo "FAIL    2^32-aliased trace src (hxsp_runner exited 0)"
    FAILED=1
  elif ! grep -q "trace line 1: src = 4294967297 is not an integer" \
         "$WORK_DIR/hostile_trace.out"; then
    echo "FAIL    2^32-aliased trace src (no line and key in the message)"
    tail -5 "$WORK_DIR/hostile_trace.out"
    FAILED=1
  else
    echo "OK      2^32-aliased trace src (hxsp_runner exits non-zero, names line and key)"
  fi
else
  echo "SKIP    2^32-aliased trace src (ext_workloads or hxsp_runner missing)"
fi

# A result CSV whose numeric cell is garbled must fail the merge naming the
# row and the column, not merge the cell as 0: fig06's CSV with the first
# record's accepted cell set to "abc".
if [[ -s "$WORK_DIR/fig06_random_faults.csv" && -x "$RUNNER" ]] &&
   command -v python3 > /dev/null; then
  python3 - "$WORK_DIR/fig06_random_faults.csv" "$WORK_DIR/garbled.csv" <<'PY'
import csv, sys
rows = list(csv.reader(open(sys.argv[1], newline="")))
rows[1][rows[0].index("accepted")] = "abc"
csv.writer(open(sys.argv[2], "w", newline=""), lineterminator="\n").writerows(rows)
PY
  if "$RUNNER" --merge="$WORK_DIR/garbled_merged.csv" "$WORK_DIR/garbled.csv" \
       > "$WORK_DIR/garbled.out" 2>&1; then
    echo "FAIL    garbled result cell (hxsp_runner --merge exited 0)"
    FAILED=1
  elif ! grep -q "result CSV row 2, column accepted: 'abc'" \
         "$WORK_DIR/garbled.out"; then
    echo "FAIL    garbled result cell (no row and column in the message)"
    tail -5 "$WORK_DIR/garbled.out"
    FAILED=1
  else
    echo "OK      garbled result cell (hxsp_runner --merge exits non-zero, names row and column)"
  fi
else
  echo "SKIP    garbled result cell (fig06 CSV, hxsp_runner or python3 missing)"
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
