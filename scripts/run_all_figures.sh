#!/usr/bin/env bash
# One-shot figure reproduction: runs every paper figure/table driver and
# every extension study, renders the plot presets over the persisted
# CSVs, and finally checks the expected-output manifest — every artefact
# must exist and parse as a non-empty result table, so a silently
# skipped or crashed step cannot masquerade as a successful run.
#
# Usage: scripts/run_all_figures.sh [build-dir] [out-dir]
#   build-dir  defaults to "build"
#   out-dir    defaults to "figures_out" (created; artefacts overwritten)
#
# Environment:
#   SCALE=quick|paper  quick (default) uses CI-sized grids that finish in
#                      seconds; paper passes --paper to the seven drivers
#                      that read it (fig04, fig05, fig06, fig08, fig09,
#                      fig10, ext_dynamic_faults) for the source paper's
#                      shapes, loads and windows (hours of CPU), and runs
#                      the rest at their defaults (table03, table04 and
#                      fig01 are paper-scale already).
#   JOBS=N             worker processes per driver (default: nproc).
set -u

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-figures_out}"
SCALE="${SCALE:-quick}"
JOBS="${JOBS:-$(nproc 2> /dev/null || echo 2)}"
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$OUT_DIR"
FAILED=0

# Tiny-grid arguments per driver at quick scale.
quick_args() {
  case "$1" in
    fig01_diameter_faults) echo "--side=4 --dims=2 --seeds=2 --step=8" ;;
    fig04_2d_faultfree) echo "--side=4 --warmup=200 --measure=400 --loads=0.4,0.8" ;;
    fig05_3d_faultfree) echo "--side=4 --warmup=150 --measure=300 --loads=0.4,0.8" ;;
    fig06_random_faults) echo "--side=4 --warmup=200 --measure=400 --steps=2 --max-faults=4" ;;
    fig08_2d_shapes) echo "--side=4 --warmup=200 --measure=400" ;;
    fig09_3d_shapes) echo "--side=4 --warmup=150 --measure=300" ;;
    fig10_completion) echo "--side=4 --phits=256 --bucket=500 --deadline=40000" ;;
    ext_dynamic_faults) echo "--side=4 --warmup=500 --measure=2000 --faults=3" ;;
    ext_workloads) echo "--side=4 --sps=1 --msg-packets=2 --fault-fracs=0,0.05 --bucket=500" ;;
    ext_multitenant) echo "--side=4 --msg-packets=2 --fault-fracs=0,0.04,0.08 --bucket=500" ;;
    *) echo "" ;;
  esac
}

# Paper-scale arguments: only these drivers have a --paper mode.
paper_args() {
  case "$1" in
    fig04_2d_faultfree | fig05_3d_faultfree | fig06_random_faults | \
      fig08_2d_shapes | fig09_3d_shapes | fig10_completion | \
      ext_dynamic_faults) echo "--paper" ;;
    *) echo "" ;;
  esac
}

DRIVERS=(
  table03_topology
  table04_mechanisms
  fig01_diameter_faults
  fig04_2d_faultfree
  fig05_3d_faultfree
  fig06_random_faults
  fig08_2d_shapes
  fig09_3d_shapes
  fig10_completion
  ext_dynamic_faults
  ext_workloads
  ext_multitenant
)

for driver in "${DRIVERS[@]}"; do
  bin="$BUILD_DIR/$driver"
  if [[ ! -x "$bin" ]]; then
    echo "MISSING $driver (not built)"
    FAILED=1
    continue
  fi
  case "$SCALE" in
    quick) args="$(quick_args "$driver")" ;;
    paper) args="$(paper_args "$driver")" ;;
    *)
      echo "unknown SCALE=$SCALE (want quick or paper)"
      exit 2
      ;;
  esac
  # shellcheck disable=SC2086  # word-splitting of $args is intended
  if "$bin" $args --jobs="$JOBS" --csv="$OUT_DIR/$driver.csv" \
       > "$OUT_DIR/$driver.log" 2>&1; then
    echo "OK      $driver"
  else
    echo "FAIL    $driver (see $OUT_DIR/$driver.log)"
    tail -5 "$OUT_DIR/$driver.log"
    FAILED=1
  fi
done

# Render the presets. With matplotlib installed each writes a PNG; either
# way the ASCII/summary output is kept next to the CSV as <name>.plot.txt
# so the manifest below can require that plotting actually ran.
render() { # <csv-driver> <artefact-name> [plot_results.py args...]
  local csv="$OUT_DIR/$1.csv" name="$2"
  shift 2
  if python3 "$SCRIPT_DIR/plot_results.py" "$csv" "$@" \
       --out="$OUT_DIR/$name.png" > "$OUT_DIR/$name.plot.txt" 2>&1; then
    echo "OK      plot $name"
  else
    echo "FAIL    plot $name"
    tail -5 "$OUT_DIR/$name.plot.txt"
    FAILED=1
  fi
}

if command -v python3 > /dev/null; then
  render fig04_2d_faultfree fig04
  render fig05_3d_faultfree fig05
  render fig06_random_faults fig06 --x=faults
  render fig08_2d_shapes fig08 --preset=fig08
  render fig09_3d_shapes fig09 --preset=fig09
  render fig10_completion fig10 --preset=fig10
  render ext_workloads workloads --preset=workload
  render ext_multitenant multitenant --preset=multitenant
else
  echo "SKIP    plots (no python3)"
fi

# Expected-output manifest: artefact -> minimum line count. CSVs need a
# header plus at least one record; plot transcripts need at least one
# line. Counts are lower bounds valid at both scales — the check guards
# "this artefact was produced and is non-trivial", not exact row counts.
MANIFEST=(
  "table03_topology.csv 2"
  "table04_mechanisms.csv 2"
  "fig01_diameter_faults.csv 2"
  "fig04_2d_faultfree.csv 3"
  "fig05_3d_faultfree.csv 3"
  "fig06_random_faults.csv 3"
  "fig08_2d_shapes.csv 3"
  "fig09_3d_shapes.csv 3"
  "fig10_completion.csv 2"
  "ext_dynamic_faults.csv 2"
  "ext_workloads.csv 3"
  "ext_multitenant.csv 3"
)
if command -v python3 > /dev/null; then
  MANIFEST+=(
    "fig04.plot.txt 1"
    "fig05.plot.txt 1"
    "fig06.plot.txt 1"
    "fig08.plot.txt 1"
    "fig09.plot.txt 1"
    "fig10.plot.txt 1"
    "workloads.plot.txt 1"
    "multitenant.plot.txt 1"
  )
fi

echo
echo "Manifest check ($OUT_DIR):"
for entry in "${MANIFEST[@]}"; do
  read -r file min <<< "$entry"
  path="$OUT_DIR/$file"
  if [[ ! -s "$path" ]]; then
    echo "FAIL    $file (missing or empty)"
    FAILED=1
  elif (($(wc -l < "$path") < min)); then
    echo "FAIL    $file (fewer than $min lines)"
    FAILED=1
  else
    echo "OK      $file"
  fi
done

if ((FAILED)); then
  echo
  echo "run_all_figures: FAILED (see above)"
else
  echo
  echo "run_all_figures: all artefacts present in $OUT_DIR"
fi
exit $FAILED
