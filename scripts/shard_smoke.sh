#!/usr/bin/env bash
# Distributed-run smoke test: exercises the TaskSpec manifest pipeline
# end to end on one driver (fig06) at tiny scale and asserts the three
# byte-identity contracts of the distributed layer:
#   1. driver --csv  ==  hxsp_runner on the driver's manifest
#   2. shard 0/2 + shard 1/2, merged  ==  the uninterrupted run
#   3. a run killed mid-file and resumed  ==  the uninterrupted run
# It also checks that a merge refuses overlapping shard files.
# Finally smoke-checks scripts/plot_results.py on the produced CSV
# (ASCII fallback when matplotlib is absent, so no display is needed).
#
# Usage: scripts/shard_smoke.sh [build-dir]   (default: build)
set -u

BUILD_DIR="${1:-build}"
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT
FAILED=0

fail() {
  echo "FAIL    $1"
  FAILED=1
}

DRIVER="$BUILD_DIR/fig06_random_faults"
RUNNER="$BUILD_DIR/hxsp_runner"
ARGS=(--side=4 --warmup=200 --measure=400 --steps=2 --max-faults=4)

for bin in "$DRIVER" "$RUNNER"; do
  if [[ ! -x "$bin" ]]; then
    echo "MISSING $bin (not built)"
    exit 1
  fi
done

# --- emit + reference run --------------------------------------------------

"$DRIVER" "${ARGS[@]}" --emit-tasks="$WORK_DIR/manifest.json" > /dev/null \
  || fail "emit-tasks"
"$RUNNER" "$WORK_DIR/manifest.json" --jobs=1 \
    --csv="$WORK_DIR/ref.csv" --quiet > /dev/null \
  || fail "runner reference run"
[[ -s "$WORK_DIR/ref.csv" ]] || fail "reference CSV empty"

# --- 1. driver in-process output == runner output --------------------------

"$DRIVER" "${ARGS[@]}" --jobs=2 --csv="$WORK_DIR/driver.csv" > /dev/null \
  || fail "driver in-process run"
cmp -s "$WORK_DIR/driver.csv" "$WORK_DIR/ref.csv" \
  || fail "driver CSV != runner CSV"
echo "OK      driver == runner"

# --- 2. shard + merge == uninterrupted ------------------------------------

"$RUNNER" "$WORK_DIR/manifest.json" --shard=0/2 --jobs=2 \
    --csv="$WORK_DIR/s0.csv" --quiet > /dev/null || fail "shard 0/2"
"$RUNNER" "$WORK_DIR/manifest.json" --shard=1/2 --jobs=1 \
    --csv="$WORK_DIR/s1.csv" --quiet > /dev/null || fail "shard 1/2"
"$RUNNER" --merge="$WORK_DIR/merged.csv" \
    "$WORK_DIR/s0.csv" "$WORK_DIR/s1.csv" > /dev/null || fail "merge"
cmp -s "$WORK_DIR/merged.csv" "$WORK_DIR/ref.csv" \
  || fail "merged shards CSV != reference"
echo "OK      shard 0/2 + 1/2 merge"

# A shard file given twice would duplicate its rows: the merge must fail
# (it aborts; the redirected group keeps the shell's abort notice quiet).
if { "$RUNNER" --merge="$WORK_DIR/dup.csv" "$WORK_DIR/s0.csv" \
       "$WORK_DIR/s1.csv" "$WORK_DIR/s0.csv"; } > /dev/null 2>&1; then
  fail "merge accepted a shard file given twice"
else
  echo "OK      merge refuses duplicated tasks"
fi

# --- 3. kill mid-file + resume == uninterrupted -----------------------------

REF_SIZE=$(wc -c < "$WORK_DIR/ref.csv")
head -c $(( REF_SIZE * 3 / 5 )) "$WORK_DIR/ref.csv" > "$WORK_DIR/resume.csv"
"$RUNNER" "$WORK_DIR/manifest.json" --jobs=1 \
    --csv="$WORK_DIR/resume.csv" --quiet > /dev/null || fail "resume run"
cmp -s "$WORK_DIR/resume.csv" "$WORK_DIR/ref.csv" \
  || fail "resumed CSV != reference"
echo "OK      resume after truncation"

# --- plotting smoke ---------------------------------------------------------

if command -v python3 > /dev/null; then
  if python3 "$SCRIPT_DIR/plot_results.py" "$WORK_DIR/ref.csv" \
       --x=faults --out="$WORK_DIR/fig06.png" > /dev/null 2>&1; then
    echo "OK      plot_results.py"
  else
    fail "plot_results.py"
  fi
else
  echo "SKIP    plot_results.py (no python3)"
fi

exit $FAILED
