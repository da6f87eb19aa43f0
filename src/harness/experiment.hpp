#pragma once
/// \file experiment.hpp
/// Experiment assembly: one ExperimentSpec describes topology, faults,
/// routing mechanism, traffic, VCs and run control; the Experiment class
/// builds the long-lived pieces (HyperX, distance tables, escape
/// subnetwork, mechanism, traffic) once and then runs independent
/// simulations per load point — exactly the structure of every figure in
/// the paper's evaluation.

#include <memory>
#include <string>
#include <vector>

#include "core/escape_updown.hpp"
#include "metrics/report.hpp"
#include "metrics/timeseries.hpp"
#include "routing/factory.hpp"
#include "sim/network.hpp"
#include "tenant/scheduler.hpp"
#include "topology/faults.hpp"
#include "util/fields.hpp"
#include "util/thread_pool.hpp"
#include "workload/workload.hpp"

namespace hxsp {

/// Everything needed to reproduce one simulation configuration.
struct ExperimentSpec {
  // Topology.
  std::vector<int> sides = {8, 8};  ///< HyperX sides
  int servers_per_switch = -1;      ///< -1: use side (paper convention)

  // Configuration under test.
  std::string mechanism = "polsp";  ///< see make_mechanism()
  std::string pattern = "uniform";  ///< see make_traffic()
  TrafficParams traffic_params;     ///< randomized-pattern knobs (hotspot)
  SimConfig sim;                    ///< Table 2 defaults; sim.num_vcs matters

  // Faults (applied before any table is computed).
  std::vector<LinkId> fault_links;

  // Escape subnetwork (used by omnisp/polsp). Strict phase is the default
  // because it is provably deadlock-free; bench/ablation_escape_mode.cpp
  // compares it with the paper's memoryless table rule (paper §3.2).
  SwitchId escape_root = 0;
  bool escape_strict_phase = true;
  bool escape_shortcuts = true;
  EscapePenalties escape_penalties;

  // Run control.
  Cycle warmup = 4000;
  Cycle measure = 8000;
  std::uint64_t seed = 1;

  /// The servers-per-switch value this spec actually runs with: the
  /// explicit count, or the first side when the field is left at -1 (the
  /// paper convention). Every consumer — Experiment, benches, tools —
  /// must resolve through here so the -1 default means one thing.
  int resolved_servers_per_switch() const {
    return servers_per_switch < 0 ? sides.at(0) : servers_per_switch;
  }
};

/// Field table: JSON keys, equality (util/fields.hpp). Every field is
/// serialized; the codec is the lossless transport TaskSpec manifests and
/// hxsp_runner ride on.
inline const auto& field_table(const ExperimentSpec*) {
  using S = ExperimentSpec;
  static const auto table = std::make_tuple(
      field("sides", &S::sides),
      field("servers_per_switch", &S::servers_per_switch),
      field("mechanism", &S::mechanism), field("pattern", &S::pattern),
      field("traffic_params", &S::traffic_params), field("sim", &S::sim),
      field("fault_links", &S::fault_links),
      field("escape_root", &S::escape_root),
      field("escape_strict_phase", &S::escape_strict_phase),
      field("escape_shortcuts", &S::escape_shortcuts),
      field("escape_penalties", &S::escape_penalties),
      field("warmup", &S::warmup), field("measure", &S::measure),
      field("seed", &S::seed));
  return table;
}

inline bool operator==(const ExperimentSpec& a, const ExperimentSpec& b) {
  return fields_equal(a, b);
}
inline bool operator!=(const ExperimentSpec& a, const ExperimentSpec& b) {
  return !(a == b);
}

/// Serializes every field of \p spec as one JSON object. Doubles use 17
/// significant digits, so spec_from_json_text(spec_to_json(s)) == s
/// exactly.
std::string spec_to_json(const ExperimentSpec& spec);

/// Inverse of spec_to_json; aborts (HXSP_CHECK) on a key that is unknown,
/// repeated or missing, naming its path.
ExperimentSpec spec_from_json_text(const std::string& text);

/// A link failure injected while the simulation runs (extension of the
/// paper's static-fault evaluation; exercises the "recompute the routing
/// tables by BFS when the topology changes" recovery path online).
struct FaultEvent {
  Cycle at = 0;        ///< cycle at which the link dies
  LinkId link = kInvalid;
};

/// Field table: JSON keys, equality (util/fields.hpp).
inline const auto& field_table(const FaultEvent*) {
  static const auto table = std::make_tuple(field("at", &FaultEvent::at),
                                            field("link", &FaultEvent::link));
  return table;
}

inline bool operator==(const FaultEvent& a, const FaultEvent& b) {
  return fields_equal(a, b);
}
inline bool operator!=(const FaultEvent& a, const FaultEvent& b) {
  return !(a == b);
}

/// Result of a dynamic-fault run.
struct DynamicResult {
  ResultRow row;           ///< steady-state metrics over the whole window
  long dropped = 0;        ///< packets lost in dead-link output queues
  TimeSeries series{500};  ///< consumed phits over time (dip visibility)
  ServerId num_servers = 0;
};

/// Result of a completion-time run (paper Fig 10).
struct CompletionResult {
  std::string mechanism;    ///< display name, e.g. "PolSP"
  std::string pattern;      ///< traffic pattern name
  bool drained = false;     ///< all packets consumed before the deadline
  Cycle completion_time = 0;///< cycle of the last consumption
  TimeSeries series{1000};  ///< consumed phits per time bucket
  ServerId num_servers = 0; ///< for normalising the series to a rate
};

/// Result of a message-level workload run (src/workload/). Latency here
/// is *message* latency: dependency release to last packet consumed.
struct WorkloadResult {
  std::string mechanism;       ///< display name, e.g. "PolSP"
  std::string workload;        ///< workload name ("alltoall", "trace", ...)
  bool drained = false;        ///< every message completed by the deadline
  Cycle completion_time = 0;   ///< cycle the last packet was consumed
  std::vector<Cycle> phase_cycles; ///< completion cycle per phase (-1: never)
  long num_messages = 0;
  long total_packets = 0;
  double avg_msg_latency = 0;  ///< mean over completed messages
  Cycle p50_msg_latency = 0;   ///< median message latency
  Cycle p99_msg_latency = 0;   ///< tail message latency
  TimeSeries series{1000};     ///< consumed phits per time bucket
  ServerId num_servers = 0;    ///< for normalising the series to a rate
};

/// Result of a multi-tenant shared-fabric run (src/tenant/): the full
/// per-job SLO table plus fabric-level completion and utilization.
struct MultitenantResult {
  std::string mechanism;       ///< display name, e.g. "PolSP"
  std::string placement;       ///< placement policy name
  bool drained = false;        ///< every job admitted and completed in time
  Cycle completion_time = 0;   ///< cycle the fabric finally drained
  long num_jobs = 0;
  long total_packets = 0;      ///< summed over all jobs
  std::vector<TenantJobStats> jobs;  ///< in job order
  TimeSeries series{1000};     ///< fabric-wide consumed phits per bucket
  ServerId num_servers = 0;    ///< for normalising the series to a rate
};

/// Builds and runs simulations for one spec. The topology/table/escape
/// construction happens once in the constructor; each run_* call spins up
/// a fresh Network (fresh buffers/rng) over the shared structures.
class Experiment {
 public:
  explicit Experiment(const ExperimentSpec& spec);

  /// One rate-mode simulation point at \p offered phits/cycle/server.
  ResultRow run_load(double offered);

  /// A completion-mode run: every server sends \p packets_per_server
  /// packets as fast as it can; at most \p max_cycles are simulated.
  CompletionResult run_completion(long packets_per_server, Cycle bucket_width,
                                  Cycle max_cycles);

  /// A message-level workload run: builds the workload selected by
  /// \p params over this spec's server count (randomized workloads draw
  /// from a stream forked off the spec seed), releases its dependency
  /// roots and simulates until every message completed or \p max_cycles
  /// elapsed. Returns per-phase and total completion cycles plus message
  /// latency tail percentiles.
  WorkloadResult run_workload(const WorkloadParams& params, Cycle bucket_width,
                              Cycle max_cycles);

  /// A multi-tenant shared-fabric run: jobs arrive on a deterministic
  /// queue, get placed by \p params.placement and run concurrently until
  /// every job completed or \p max_cycles elapsed (see src/tenant/).
  /// When params.isolated_baseline is set, each admitted job is also run
  /// alone on an otherwise empty fabric (same messages, same placement)
  /// to fill the per-tenant slowdown column.
  MultitenantResult run_multitenant(const MultitenantParams& params,
                                    Cycle bucket_width, Cycle max_cycles);

  /// Rate-mode run with online fault injection: each event kills a link at
  /// its cycle, the distance tables and escape subnetwork are rebuilt by
  /// BFS, packets queued on the dead wire are dropped, and the simulation
  /// continues. Events must not disconnect the network (checked). The
  /// injected faults are restored afterwards, so the Experiment remains
  /// reusable.
  DynamicResult run_load_dynamic(double offered, std::vector<FaultEvent> events);

  /// Zero-load route walk: injects nothing, but follows the mechanism's
  /// candidate sets greedily (lowest penalty, then lowest port) from
  /// switch \p src to switch \p dst; returns the hop count or -1 when the
  /// walk exceeds \p max_hops. Used by liveness tests and diagnostics.
  int walk_route(SwitchId src, SwitchId dst, int max_hops);

  /// Runs the candidate phase of every simulation step on \p threads
  /// worker threads (0 = serial, the default). Purely an execution knob:
  /// results are bit-identical at every thread count (see
  /// Network::set_step_pool), which is why it is not part of the spec or
  /// its JSON codec. Affects Networks created by subsequent run_* calls.
  void set_step_threads(int threads);

  /// Attaches a telemetry capture: every subsequent run_* call overwrites
  /// \p cap with the run's windowed frames, per-router/link/VC counters
  /// and sampled trace hops (see telemetry/capture.hpp) — empty when the
  /// spec's telemetry knobs are all off. Null detaches. Like
  /// set_step_threads this is an execution knob, not part of the spec
  /// codec: attaching a capture never changes any result row.
  void attach_telemetry(TelemetryCapture* cap) { telemetry_capture_ = cap; }

  const HyperX& hyperx() const { return *hx_; }
  const DistanceProvider& distances() const { return *dist_; }
  const EscapeUpDown* escape() const { return escape_.get(); }
  const NetworkContext& context() const { return ctx_; }
  RoutingMechanism& mechanism() { return *mech_; }
  TrafficPattern& traffic() { return *traffic_; }
  const ExperimentSpec& spec() const { return spec_; }

 private:
  struct RunPlan;  ///< what simulate() does with one Network (see .cpp)

  /// The one run loop behind every run_* method: builds a Network from
  /// plan.seed over the shared structures, attaches the step pool and the
  /// series, starts the traffic source, drives the network through the
  /// measurement window or to drain (firing timed actions on the way) and
  /// exports telemetry. Returns the finished network for the caller to map.
  std::unique_ptr<Network> simulate(RunPlan& plan);

  /// The rate-mode row of a finished windowed run at \p offered.
  ResultRow rate_row(double offered, const Network& net) const;

  ExperimentSpec spec_;
  std::unique_ptr<HyperX> hx_;
  std::unique_ptr<DistanceProvider> dist_;
  std::unique_ptr<EscapeUpDown> escape_;
  std::unique_ptr<RoutingMechanism> mech_;
  std::unique_ptr<TrafficPattern> traffic_;
  NetworkContext ctx_;
  Rng rng_;
  std::unique_ptr<ThreadPool> step_pool_; ///< null = serial stepping
  TelemetryCapture* telemetry_capture_ = nullptr; ///< borrowed; may be null
};

} // namespace hxsp
