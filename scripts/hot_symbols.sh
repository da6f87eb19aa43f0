#!/usr/bin/env bash
# Reports where the step loop's hottest functions landed in one or two
# binaries: each function's start address mod 64 (its offset inside a
# 64-byte cache line) and its size in bytes, read from `nm -C -S`.
#
# Wall time on an allocation-bound workload can move by several percent
# when Router::alloc_phase moves to another offset mod 64, with no change
# to the code it runs. Compare two builds side by side before reading a
# small wall-time difference as a code effect.
#
# Usage: scripts/hot_symbols.sh <binary> [<binary>]
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 <binary> [<binary>]" >&2
  exit 2
fi
for bin in "$@"; do
  if [[ ! -f "$bin" ]]; then
    echo "$0: no such binary: $bin" >&2
    exit 2
  fi
done

SYMBOLS=(Router::alloc_phase Router::link_phase Router::compute_candidates
         Router::push_input RoutingMechanism::candidates
         PolarizedAlgorithm::ports EscapeUpDown::candidates
         Server::injection_phase Network::process_events
         Network::handle_consume Network::deliver Network::consume_at
         Network::commit_link_stages Network::step)

# "<addr mod 64> <size>" of the first non-clone definition of hxsp::$2, or
# "- -" when the binary does not define it.
locate() {
  local line
  line="$(nm -C -S --defined-only "$1" | grep -F " hxsp::$2(" |
          grep -v -F "[clone" | head -n 1 || true)"
  if [[ -z "$line" ]]; then
    echo "- -"
    return
  fi
  read -r addr size _ <<< "$line"
  echo "$(( 16#$addr % 64 )) $(( 16#$size ))"
}

bins=("$@")
labels=(A B)
header="%-30s"
names=("function")
for i in "${!bins[@]}"; do
  echo "${labels[$i]}: ${bins[$i]}"
  header+="  %8s %7s"
  names+=("${labels[$i]} mod64" "bytes")
done
# shellcheck disable=SC2059  # the format is built above
printf "$header\n" "${names[@]}"
for sym in "${SYMBOLS[@]}"; do
  row=("$sym")
  for bin in "${bins[@]}"; do
    read -r mod size <<< "$(locate "$bin" "$sym")"
    row+=("$mod" "$size")
  done
  # shellcheck disable=SC2059
  printf "$header\n" "${row[@]}"
done
