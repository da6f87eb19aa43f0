#!/usr/bin/env bash
# Builds the benchmark (Release, into benchmark/build/) and runs it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--trace 0|1] [--smoke]
#                    [--out FILE]
#
# Without --workload all four workloads run in turn. BENCHMARK.json's
# command also passes --seconds, which must equal its run_seconds. Build
# output goes to stderr; the last line on stdout is the JSON result. See
# README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build"
nproc="$(nproc 2>/dev/null || echo 1)"
jobs=$(( nproc < 4 ? nproc : 4 ))
# Keep the compiler's temporary files inside the checkout too.
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$jobs" --target hxsp_bench fig06_random_faults >&2

exec python3 "$here/run.py" --build "$build" "$@"
