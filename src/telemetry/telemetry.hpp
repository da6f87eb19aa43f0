#pragma once
/// \file telemetry.hpp
/// Cycle-windowed counter/gauge registry owned per-Network.
///
/// The engine's ResultSink rows are end-of-run aggregates; this registry
/// answers the *where and when* questions behind them — which routers
/// saturated, which links carried the escape traffic, how the latency
/// percentiles moved as faults landed. It closes a TelemetryFrame every
/// `SimConfig::telemetry_window` cycles.
///
/// Where each quantity is counted: consumptions, latency and hop kinds
/// are not counted here but in SimMetrics' cumulative MetricTally, and
/// per-link phits by each sending Router in its link phase (which may run
/// on the step pool; the counter is router-local). A frame is the
/// difference between the snapshots of those counts at its two ends.
/// The registry itself counts only what nothing else does: per-router
/// injections, ejections, escape-path entries (SurePath activations) and
/// credit stalls, per-VC grants and buffer-occupancy high-water marks.
///
/// Determinism contract: every registry hook is called from serial step
/// phases only (injection loop, alloc commit, link commit, consume
/// events), the registry never influences any simulation decision, and a
/// Network built with `telemetry_window == 0` allocates nothing — the
/// fast path pays a single null-pointer compare per hook site.

#include <cstdint>
#include <vector>

#include "metrics/stats.hpp"
#include "topology/graph.hpp"
#include "util/fields.hpp"
#include "util/types.hpp"

namespace hxsp {

/// One closed telemetry window: everything that happened in
/// [start, end) cycles. Latency percentiles are computed from the
/// packets *consumed* inside the window (-1 when none were).
struct TelemetryFrame {
  std::int64_t window = 0; ///< 0-based window index
  Cycle start = 0;
  Cycle end = 0;
  std::int64_t injected = 0;        ///< packets that left a server
  std::int64_t consumed = 0;        ///< packets delivered to a server
  std::int64_t consumed_phits = 0;  ///< consumed * packet_length
  Cycle p50_latency = -1;           ///< generation-to-delivery, this window
  Cycle p99_latency = -1;
  std::int64_t hops_routing = 0;    ///< adaptive/minimal grants
  std::int64_t hops_escape = 0;     ///< grants onto an escape VC
  std::int64_t hops_forced = 0;     ///< escape grants with no routing cand
  std::int64_t escape_entries = 0;  ///< SurePath activations (entered escape)
  std::int64_t credit_stalls = 0;   ///< injection attempts starved of credits
  std::int64_t link_phits = 0;      ///< phits over all switch-switch links
  std::int64_t link_max_phits = 0;  ///< busiest single directed link
  std::int64_t occupancy_hwm = 0;   ///< input-VC occupancy high-water mark
};

/// Field table: equality (util/fields.hpp).
inline const auto& field_table(const TelemetryFrame*) {
  using S = TelemetryFrame;
  static const auto table = std::make_tuple(
      field("window", &S::window), field("start", &S::start),
      field("end", &S::end), field("injected", &S::injected),
      field("consumed", &S::consumed),
      field("consumed_phits", &S::consumed_phits),
      field("p50_latency", &S::p50_latency),
      field("p99_latency", &S::p99_latency),
      field("hops_routing", &S::hops_routing),
      field("hops_escape", &S::hops_escape),
      field("hops_forced", &S::hops_forced),
      field("escape_entries", &S::escape_entries),
      field("credit_stalls", &S::credit_stalls),
      field("link_phits", &S::link_phits),
      field("link_max_phits", &S::link_max_phits),
      field("occupancy_hwm", &S::occupancy_hwm));
  return table;
}

inline bool operator==(const TelemetryFrame& a, const TelemetryFrame& b) {
  return fields_equal(a, b);
}

/// Per-window phit series of one directed switch-to-switch link, the
/// rows behind the `--preset=telemetry` heatmap. Only populated when the
/// topology has at most kMaxLinkSeriesLinks directed links.
struct LinkWindowSeries {
  SwitchId sw = kInvalid; ///< transmitting switch
  Port port = kInvalid;   ///< its output port
  SwitchId to = kInvalid; ///< receiving switch
  std::vector<std::int64_t> phits; ///< one entry per closed window
  std::int64_t total = 0;          ///< cumulative over the run
};

/// Field table: equality (util/fields.hpp).
inline const auto& field_table(const LinkWindowSeries*) {
  using S = LinkWindowSeries;
  static const auto table = std::make_tuple(
      field("sw", &S::sw), field("port", &S::port), field("to", &S::to),
      field("phits", &S::phits), field("total", &S::total));
  return table;
}

inline bool operator==(const LinkWindowSeries& a, const LinkWindowSeries& b) {
  return fields_equal(a, b);
}

/// Cumulative per-router instruments (whole run, not windowed).
struct RouterCounters {
  std::int64_t injections = 0;
  std::int64_t ejections = 0;
  std::int64_t escape_entries = 0;
  std::int64_t credit_stalls = 0;
  std::int64_t occupancy_hwm = 0;
};

class Network; // sim/network.hpp
struct TelemetryCapture;

/// The per-Network instrument registry. Constructed only when
/// `SimConfig::telemetry_window > 0`; all on_* hooks are called behind
/// the owner's `if (telemetry_)` gate and from serial phases only.
class TelemetryRegistry {
 public:
  /// Above this many directed switch links the per-link window series is
  /// dropped (aggregates stay) — a 16^2 paper-scale HyperX would emit
  /// thousands of heatmap rows per task otherwise.
  static constexpr std::size_t kMaxLinkSeriesLinks = 1024;

  TelemetryRegistry(const Graph& g, Cycle window, int num_vcs);

  // --- hot-path instruments (serial phases only) ---

  /// A packet's first phit left a server attached to \p sw.
  void on_inject(SwitchId sw) {
    ++cur_.injected;
    ++router_[static_cast<std::size_t>(sw)].injections;
  }

  /// A packet was consumed at a server of \p sw.
  void on_eject(SwitchId sw) {
    ++router_[static_cast<std::size_t>(sw)].ejections;
  }

  /// The allocator at \p sw granted a switch-port output.
  /// \p entered_escape marks a SurePath activation: the grant moved a
  /// packet that was *not* yet on an escape VC onto one.
  void on_grant(SwitchId sw, Vc out_vc, bool entered_escape) {
    ++vc_grants_[static_cast<std::size_t>(out_vc)];
    if (entered_escape) {
      ++cur_.escape_entries;
      ++router_[static_cast<std::size_t>(sw)].escape_entries;
    }
  }

  /// A server at \p sw had a packet and a free link but no VC with a
  /// packet's worth of credits.
  void on_credit_stall(SwitchId sw) {
    ++cur_.credit_stalls;
    ++router_[static_cast<std::size_t>(sw)].credit_stalls;
  }

  /// Input-VC occupancy at \p sw after an arrival; keeps the high-water
  /// marks (window-level and per-router cumulative).
  void on_occupancy(SwitchId sw, std::int64_t occupancy) {
    RouterCounters& rc = router_[static_cast<std::size_t>(sw)];
    if (occupancy > rc.occupancy_hwm) rc.occupancy_hwm = occupancy;
    if (occupancy > cur_.occupancy_hwm) cur_.occupancy_hwm = occupancy;
  }

  // --- window management ---

  /// Closes the current window at net.now() (called by Network::step when
  /// the window boundary is reached), taking its consumption, latency,
  /// hop-kind and link-phit entries from \p net's counters.
  void roll(const Network& net);

  /// Closes a partial tail window if any cycles elapsed since the last
  /// roll; safe to call repeatedly (idempotent at a given net.now()).
  void flush(const Network& net);

  Cycle window() const { return window_; }

  /// Copies frames, link series and per-router/per-VC counters into
  /// \p out (does not touch its trace fields).
  void export_to(TelemetryCapture& out) const;

 private:
  const Graph* graph_;
  Cycle window_;
  TelemetryFrame cur_;
  MetricTally tally_at_start_; ///< SimMetrics::tally() when cur_ opened
  /// Router::link_phits() per directed link, (switch, port) order, when
  /// cur_ opened. The counters run from cycle 0 and are never reset, so
  /// a frame's per-link load is the difference of two readings.
  std::vector<std::int64_t> link_phits_at_start_;
  std::vector<TelemetryFrame> frames_;
  std::vector<LinkWindowSeries> links_; ///< empty above the series cap
  std::vector<RouterCounters> router_;
  std::vector<std::int64_t> vc_grants_;
};

} // namespace hxsp
