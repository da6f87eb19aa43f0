#pragma once
/// \file config.hpp
/// Simulation parameters (paper Table 2) plus engine knobs.

#include "util/fields.hpp"
#include "util/types.hpp"

namespace hxsp {

/// Microarchitectural and engine configuration of a simulation.
/// Defaults reproduce the paper's Table 2 exactly.
struct SimConfig {
  int packet_length = 16;       ///< phits per packet ("Packet length 16 phits")
  int input_buffer_packets = 8; ///< per (port,VC) input FIFO ("8 packets")
  int output_buffer_packets = 4;///< per (port,VC) output FIFO ("4 packets")
  int link_latency = 1;         ///< cycles ("Link latency 1 cycle")
  int xbar_latency = 1;         ///< cycles ("Crossbar latency 1 cycle (link)")
  int xbar_speedup = 2;         ///< phits/cycle through the crossbar per port
  int num_vcs = 4;              ///< virtual channels per port
  int server_queue_packets = 8; ///< injection queue depth per server

  /// Abort if no packet movement happens for this many cycles while
  /// packets are in flight (deadlock/livelock tripwire). 0 disables.
  Cycle watchdog_cycles = 50000;

  /// Every this many cycles the engine invariant auditor recomputes the
  /// incrementally maintained hot-path structures (allocator score sums,
  /// feasibility masks, active input lists, ring-buffer occupancies,
  /// per-link credit/packet conservation) from scratch and aborts
  /// on any drift (see sim/audit.cpp). 0 disables (the default unless the
  /// build sets -DHXSP_AUDIT=ON). The audit mutates nothing: enabling it
  /// can only turn a silent byte-diff into a loud failure, never change
  /// simulation output.
#ifdef HXSP_AUDIT_BUILD
  Cycle audit_interval = 1024;
#else
  Cycle audit_interval = 0;
#endif

  /// Close a telemetry window every this many cycles: per-window
  /// throughput, latency percentiles, hop-kind counts and per-link
  /// utilization collected by the per-Network TelemetryRegistry (see
  /// telemetry/telemetry.hpp). 0 disables — no registry is allocated and
  /// the step paths pay one null-pointer compare per hook. Like the
  /// auditor, telemetry observes and never mutates: enabling it cannot
  /// change any simulation result.
  Cycle telemetry_window = 0;

  /// Sample packets whose id is a multiple of this modulus for per-hop
  /// path tracing (telemetry/trace.hpp): (cycle, router, port, VC,
  /// event) records exportable as Chrome-trace JSON / JSONL. Keyed on
  /// packet ids — never an RNG, never a clock — so traces are part of
  /// the bit-identity contract. 0 disables; 1 traces every packet.
  int trace_sample = 0;

  /// Keep a ring of the most recent engine events this deep, dumped to
  /// stderr when an HXSP_CHECK / auditor / watchdog failure aborts the
  /// run (telemetry/flight_recorder.hpp). 0 disables.
  int flight_recorder = 0;

  /// Derived: input buffer capacity in phits.
  int input_buffer_phits() const { return input_buffer_packets * packet_length; }

  /// Derived: output buffer capacity in phits.
  int output_buffer_phits() const { return output_buffer_packets * packet_length; }

  /// Derived: cycles a packet occupies the crossbar (ceil(len/speedup)).
  int xbar_cycles() const {
    return (packet_length + xbar_speedup - 1) / xbar_speedup;
  }
};

/// Field table: JSON keys, equality (util/fields.hpp).
inline const auto& field_table(const SimConfig*) {
  using S = SimConfig;
  static const auto table = std::make_tuple(
      field("packet_length", &S::packet_length),
      field("input_buffer_packets", &S::input_buffer_packets),
      field("output_buffer_packets", &S::output_buffer_packets),
      field("link_latency", &S::link_latency),
      field("xbar_latency", &S::xbar_latency),
      field("xbar_speedup", &S::xbar_speedup),
      field("num_vcs", &S::num_vcs),
      field("server_queue_packets", &S::server_queue_packets),
      field("watchdog_cycles", &S::watchdog_cycles),
      // Manifests written before the auditor and telemetry existed lack
      // these keys; they mean "off", whatever the build default.
      field_or("audit_interval", &S::audit_interval, 0),
      field_or("telemetry_window", &S::telemetry_window, 0),
      field_or("trace_sample", &S::trace_sample, 0),
      field_or("flight_recorder", &S::flight_recorder, 0));
  return table;
}

inline bool operator==(const SimConfig& a, const SimConfig& b) {
  return fields_equal(a, b);
}
inline bool operator!=(const SimConfig& a, const SimConfig& b) {
  return !(a == b);
}

} // namespace hxsp
