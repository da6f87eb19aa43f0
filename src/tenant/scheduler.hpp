#pragma once
/// \file scheduler.hpp
/// TenantScheduler — the shared-fabric admission loop.
///
/// Jobs (a workload shape + server demand + arrival cycle + optional
/// deadline) arrive on a deterministic queue. At each arrival — and
/// whenever a running job completes and frees its servers — the
/// scheduler scans the wait queue in FIFO order and admits every job the
/// placement policy can fit (first-fit with skip: a large job waiting
/// for space does not block a small one behind it). Admission binds the
/// job's pre-built logical message list to the placed servers through
/// WorkloadRun::bind and launches it into the running simulation;
/// completion releases the servers back to the PlacementMap.
///
/// The scheduler is the Network's MessageSource: every job's messages
/// share one global id space (per-job bases), so consumed packets route
/// back to the owning run by a binary search over the base table.
/// Completion-triggered admissions happen inside the Consume callback,
/// so the admitted job's roots are generated in that same step, before
/// run_until_drained checks for a drained fabric again.
///
/// Everything here runs on the simulation thread at deterministic
/// points; the only RNG is the placement stream (random policy), drawn
/// only on successful placements.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "tenant/placement.hpp"
#include "util/fields.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"
#include "workload/run.hpp"
#include "workload/workload.hpp"

namespace hxsp {

/// One tenant job: a workload generator shape, how many servers it
/// wants, when it arrives, and an optional completion deadline
/// (cycles after arrival; 0 = none). Pure data — rides inside TaskSpec.
struct JobSpec {
  WorkloadParams workload;
  ServerId demand = 0;
  Cycle arrival = 0;
  Cycle deadline = 0;
};

/// Field table: JSON keys, equality (util/fields.hpp).
inline const auto& field_table(const JobSpec*) {
  static const auto table = std::make_tuple(
      field("demand", &JobSpec::demand), field("arrival", &JobSpec::arrival),
      field("deadline", &JobSpec::deadline),
      field("workload", &JobSpec::workload));
  return table;
}

inline bool operator==(const JobSpec& a, const JobSpec& b) {
  return fields_equal(a, b);
}
inline bool operator!=(const JobSpec& a, const JobSpec& b) { return !(a == b); }

/// Parameters of one multi-tenant simulation. Pure data (TaskSpec kind
/// "multitenant").
struct MultitenantParams {
  std::string placement = "contiguous";  ///< see make_placement()
  bool isolated_baseline = true;  ///< also run each job alone (slowdown)
  std::vector<JobSpec> jobs;
};

/// Field table: JSON keys, equality (util/fields.hpp).
inline const auto& field_table(const MultitenantParams*) {
  using S = MultitenantParams;
  static const auto table = std::make_tuple(
      field("placement", &S::placement),
      field("isolated_baseline", &S::isolated_baseline),
      field("jobs", &S::jobs));
  return table;
}

inline bool operator==(const MultitenantParams& a, const MultitenantParams& b) {
  return fields_equal(a, b);
}
inline bool operator!=(const MultitenantParams& a, const MultitenantParams& b) {
  return !(a == b);
}

/// Per-tenant SLO record: the scheduler fills the lifecycle and message
/// latency fields; Experiment::run_multitenant adds the isolated-run
/// baseline (isolated_span, slowdown).
struct TenantJobStats {
  int job = 0;               ///< index into MultitenantParams::jobs
  std::string workload;      ///< generator name
  ServerId demand = 0;
  Cycle arrival = 0;
  Cycle deadline = 0;        ///< relative to arrival; 0 = none
  Cycle admitted = -1;       ///< -1: never admitted before the horizon
  Cycle completed = -1;      ///< one past the last consume cycle (the
                             ///< repo's completion_time convention);
                             ///< -1: never completed before the horizon
  long num_messages = 0;
  long total_packets = 0;
  double avg_msg_latency = 0;
  Cycle p50_msg_latency = 0;
  Cycle p99_msg_latency = 0;
  Cycle isolated_span = 0;   ///< admission-to-completion, run alone
  double slowdown = 0;       ///< shared span / isolated span

  Cycle queue_wait() const { return admitted < 0 ? -1 : admitted - arrival; }
  Cycle span() const { return completed < 0 ? -1 : completed - admitted; }
  /// True when a deadline exists and the job met it.
  bool deadline_met() const {
    return deadline > 0 && completed >= 0 && completed - arrival <= deadline;
  }
};

class Network;

/// The fabric-as-a-service loop. Construction pre-builds every job's
/// WorkloadRun from \p job_msgs (logical ids in [0, demand)); start()
/// attaches the scheduler to the network; the caller then alternates
/// advancing simulated time with process_arrivals() (see
/// Experiment::run_multitenant for the reference loop).
class TenantScheduler : public MessageSource {
 public:
  /// \p job_msgs[j] must validate against jobs[j].demand (as
  /// Workload::build's output does; not checked again here), and demands
  /// must fit the fabric (checked).
  TenantScheduler(const MultitenantParams& params,
                  std::vector<MessageList> job_msgs,
                  ServerId num_servers, int servers_per_switch,
                  Rng placement_rng);

  /// Enters message mode on \p net; launches nothing (arrivals drive
  /// all work). Call once, before any arrival.
  void start(Network& net);

  /// Earliest arrival cycle not yet processed, or -1 when exhausted.
  Cycle next_arrival() const;

  /// Queues every job whose arrival cycle has been reached and admits
  /// whatever fits, in arrival order (ties: job order).
  void process_arrivals(Network& net);

  /// True when every job has completed.
  bool all_done() const { return finished_ == stats_.size(); }

  /// Per-job lifecycle + latency records, in job order.
  const std::vector<TenantJobStats>& stats() const { return stats_; }

  /// Concrete servers job \p j ran on (empty until admitted).
  const std::vector<ServerId>& placement_of(int j) const {
    return bindings_[static_cast<std::size_t>(j)];
  }

  // --- MessageSource (engine hooks) ----------------------------------------

  ServerId msg_dst(std::int32_t m, Rng& rng) const override {
    return runs_[owner_of(m)]->msg_dst(m, rng);
  }
  int start_message(std::int32_t m) override {
    return runs_[owner_of(m)]->start_message(m);
  }
  void on_packet_consumed(std::int32_t m, Cycle now, Network& net) override;

 private:
  std::size_t owner_of(std::int32_t m) const;
  void try_admit(Network& net);

  std::unique_ptr<PlacementPolicy> policy_;
  PlacementMap map_;
  Rng placement_rng_;
  std::vector<std::unique_ptr<WorkloadRun>> runs_;
  std::vector<std::int32_t> msg_base_;      ///< ascending, one per job
  std::vector<std::vector<ServerId>> bindings_;
  std::vector<TenantJobStats> stats_;
  std::vector<std::size_t> arrival_order_;  ///< job indices by arrival
  std::size_t next_arrival_ = 0;            ///< cursor into arrival_order_
  std::deque<std::size_t> waiting_;         ///< arrived, not yet placed
  std::size_t finished_ = 0;
  bool started_ = false;
};

} // namespace hxsp
