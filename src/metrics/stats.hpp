#pragma once
/// \file stats.hpp
/// Performance metrics collected during a simulation (paper §4):
/// average accepted throughput, average message latency and the Jain
/// fairness index of per-server *generated* load.
///
/// Where each instrument quantity is counted, once: consumed packets,
/// packet latency (sum and histogram) and hop kinds in SimMetrics'
/// cumulative MetricTally (consume events and allocator grants, both
/// serial); per-link phits by the sending Router in its link phase
/// (sim/router.hpp). The measurement window and every telemetry frame
/// are differences between snapshots of these counts.

#include <array>
#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace hxsp {

/// Jain fairness index of a load vector: (sum x)^2 / (n * sum x^2).
/// 1.0 = perfect equity; the paper calls >= 0.98 "a good value".
/// Returns 1.0 for an all-zero vector (vacuously fair).
double jain_index(const std::vector<std::int64_t>& x);

/// Fixed-width latency histogram that grows to cover its largest sample;
/// supports percentile queries for the extension analyses.
class LatencyHistogram {
 public:
  /// \p bucket_width cycles per bucket, \p num_buckets buckets to start
  /// with; add() appends buckets past the last as samples need them.
  explicit LatencyHistogram(int bucket_width = 8, int num_buckets = 1024);

  /// Records one sample.
  void add(Cycle latency);

  /// Number of recorded samples.
  std::int64_t count() const { return count_; }

  /// Approximate p-quantile (0 < p < 1) as the upper edge of the bucket
  /// containing it; returns -1 when empty.
  Cycle percentile(double p) const;

  /// Removes the samples of \p base, an earlier snapshot of this
  /// histogram (same bucket width, never more buckets).
  void subtract(const LatencyHistogram& base);

 private:
  int width_;
  std::vector<std::int64_t> buckets_; ///< bucket b counts [b*w, (b+1)*w)
  std::int64_t count_ = 0;
};

/// Kinds of switch-to-switch hops, for SurePath's escape-usage accounting.
enum class HopKind {
  Routing, ///< taken from the base routing's candidates (CRout)
  Escape,  ///< escape subnetwork chosen although routing candidates existed
  Forced   ///< escape chosen because no routing candidate existed (§3)
};

/// Cumulative counts behind both the measurement window (ResultRow) and
/// the telemetry frames. They are counted once, from the start of the
/// run, and never reset: any window is since() between two snapshots.
struct MetricTally {
  std::int64_t consumed = 0;    ///< packets consumed (packet_length phits each)
  std::int64_t latency_sum = 0; ///< their creation-to-consumption cycles
  std::array<std::int64_t, 3> hops{}; ///< switch hops, indexed by HopKind
  LatencyHistogram latency;     ///< the same latencies, bucketed

  /// What was counted after \p base, an earlier snapshot of this tally.
  MetricTally since(const MetricTally& base) const;
};

/// Aggregated counters for one simulation. A measurement window restricts
/// the results to the steady-state portion of the run: the tally's
/// difference between begin_window and end_window, plus the per-server
/// generated phits (generated_load, Jain), which are counted in-window.
class SimMetrics {
 public:
  SimMetrics() = default;

  /// Must be called before the simulation starts.
  void configure(ServerId num_servers, int packet_length);

  /// Opens the measurement window at cycle \p now (snapshots the tally).
  void begin_window(Cycle now);

  /// Closes the measurement window at cycle \p now.
  void end_window(Cycle now);

  /// A server enqueued a freshly generated packet.
  void on_generated(ServerId src, Cycle now);

  /// A packet was fully consumed by its destination server.
  /// \p created is its generation timestamp.
  void on_consumed(ServerId dst, Cycle created, Cycle now);

  /// A switch-to-switch hop of the given kind was granted. Inline: this
  /// fires once per grant, deep in the engine's per-cycle hot path.
  void on_hop(HopKind kind) { ++tally_.hops[static_cast<std::size_t>(kind)]; }

  /// Everything counted since the start of the simulation.
  const MetricTally& tally() const { return tally_; }

  // --- results (valid after end_window) ----------------------------------

  /// Accepted load in phits/cycle/server over the window.
  double accepted_load() const;

  /// Generated load in phits/cycle/server over the window (== offered when
  /// injection queues never backpressure).
  double generated_load() const;

  /// Mean latency (creation to consumption) of packets consumed in-window.
  double avg_latency() const;

  /// Jain index of per-server generated phits over the window.
  double jain() const;

  /// Packets consumed inside the window.
  std::int64_t consumed_packets() const { return window_.consumed; }

  /// Packets consumed since the start of the simulation.
  std::int64_t total_consumed_packets() const { return tally_.consumed; }

  /// Packets generated since the start of the simulation.
  std::int64_t total_generated_packets() const { return total_generated_packets_; }

  /// Fraction of switch hops that used the escape subnetwork (in-window).
  double escape_hop_fraction() const;

  /// Fraction of switch hops that were forced (no routing candidate).
  double forced_hop_fraction() const;

  /// The latency histogram for in-window consumptions.
  const LatencyHistogram& latency_histogram() const { return window_.latency; }

  /// Window length in cycles (0 while the window is open).
  Cycle window_cycles() const;

 private:
  bool in_window() const { return window_start_ >= 0 && window_end_ < 0; }

  ServerId num_servers_ = 0;
  int packet_length_ = 0;
  Cycle window_start_ = -1;
  Cycle window_end_ = -1;

  std::vector<std::int64_t> generated_phits_; ///< per server, in-window
  std::int64_t total_generated_packets_ = 0;
  MetricTally tally_;        ///< cumulative
  MetricTally window_begin_; ///< tally_ at begin_window
  MetricTally window_;       ///< tally_ since window_begin_, at end_window
};

} // namespace hxsp
