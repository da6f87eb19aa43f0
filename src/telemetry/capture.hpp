#pragma once
/// \file capture.hpp
/// Plain-data snapshot of one run's telemetry, extracted from a Network
/// after the simulation finishes.
///
/// A TelemetryCapture is the hand-off between the engine and the
/// harness: Experiment fills one per run (when attached), the sweep
/// collects one per task in submission order, and the runner turns them
/// into `telemetry` ResultSink rows and Chrome-trace/JSONL exports.
/// It is deliberately value-semantic and equality-comparable so golden
/// tests can assert bit-identity of the whole telemetry surface across
/// worker and step-thread counts.

#include <cstdint>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/fields.hpp"
#include "util/types.hpp"

namespace hxsp {

struct TelemetryCapture {
  Cycle window = 0;        ///< telemetry_window the run used (0: off)
  int packet_length = 0;   ///< phits per packet (throughput conversion)
  ServerId num_servers = 0;
  int trace_sample = 0;    ///< trace sampling modulus (0: off)
  std::int64_t trace_dropped = 0; ///< hops past PacketTracer::kMaxHops

  std::vector<TelemetryFrame> frames;  ///< closed windows, in order
  std::vector<LinkWindowSeries> links; ///< per-link series (may be empty)
  std::vector<std::int64_t> vc_grants; ///< grants per output VC

  // Cumulative per-router counters, indexed by switch id.
  std::vector<std::int64_t> router_injections;
  std::vector<std::int64_t> router_ejections;
  std::vector<std::int64_t> router_escape_entries;
  std::vector<std::int64_t> router_credit_stalls;
  std::vector<std::int64_t> router_occupancy_hwm;

  std::vector<TraceHop> hops; ///< sampled packet hops, recording order

  /// True when the capture holds any telemetry or trace data.
  bool active() const { return window > 0 || trace_sample > 0; }
};

/// Field table: equality (util/fields.hpp).
inline const auto& field_table(const TelemetryCapture*) {
  using S = TelemetryCapture;
  static const auto table = std::make_tuple(
      field("window", &S::window), field("packet_length", &S::packet_length),
      field("num_servers", &S::num_servers),
      field("trace_sample", &S::trace_sample),
      field("trace_dropped", &S::trace_dropped), field("frames", &S::frames),
      field("links", &S::links), field("vc_grants", &S::vc_grants),
      field("router_injections", &S::router_injections),
      field("router_ejections", &S::router_ejections),
      field("router_escape_entries", &S::router_escape_entries),
      field("router_credit_stalls", &S::router_credit_stalls),
      field("router_occupancy_hwm", &S::router_occupancy_hwm),
      field("hops", &S::hops));
  return table;
}

inline bool operator==(const TelemetryCapture& a, const TelemetryCapture& b) {
  return fields_equal(a, b);
}

inline bool operator!=(const TelemetryCapture& a, const TelemetryCapture& b) {
  return !(a == b);
}

} // namespace hxsp
