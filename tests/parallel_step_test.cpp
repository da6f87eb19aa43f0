/// \file parallel_step_test.cpp
/// Deterministic intra-run parallel stepping: partitioning the link phase
/// across a worker pool must leave every simulation observable — rates,
/// latencies, tail percentiles, packet counts — bit-identical to serial
/// stepping at every thread count, for every mechanism family, with
/// faults, online fault events and the invariant auditor enabled. Routing
/// never runs on the pool: it stays on the thread that steps the Network.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hpp"
#include "routing/minimal.hpp"
#include "sim/network.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace hxsp {
namespace {

/// Exact equality of every ResultRow field — doubles compared with ==,
/// because the claim is bit-identity, not tolerance.
void expect_identical(const ResultRow& a, const ResultRow& b,
                      const std::string& what) {
  EXPECT_EQ(a.mechanism, b.mechanism) << what;
  EXPECT_EQ(a.pattern, b.pattern) << what;
  EXPECT_EQ(a.offered, b.offered) << what;
  EXPECT_EQ(a.generated, b.generated) << what;
  EXPECT_EQ(a.accepted, b.accepted) << what;
  EXPECT_EQ(a.avg_latency, b.avg_latency) << what;
  EXPECT_EQ(a.jain, b.jain) << what;
  EXPECT_EQ(a.escape_frac, b.escape_frac) << what;
  EXPECT_EQ(a.forced_frac, b.forced_frac) << what;
  EXPECT_EQ(a.p99_latency, b.p99_latency) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.packets, b.packets) << what;
}

ExperimentSpec small_spec(const std::string& mechanism) {
  ExperimentSpec spec;
  spec.sides = {4, 4};
  spec.mechanism = mechanism;
  spec.pattern = "uniform";
  spec.sim.num_vcs = 4;
  spec.warmup = 400;
  spec.measure = 1200;
  spec.seed = 17;
  return spec;
}

TEST(ParallelStep, BitIdenticalAcrossThreadCounts) {
  // Ladder (minimal), plain polarized, and SurePath (escape subnetwork):
  // the three mechanism families exercise every candidates() code path.
  for (const std::string mech : {"minimal", "polarized", "polsp"}) {
    Experiment e(small_spec(mech));
    e.set_step_threads(0);
    const ResultRow serial = e.run_load(0.6);
    EXPECT_GT(serial.packets, 0) << mech;
    for (const int threads : {1, 2, 8}) {
      e.set_step_threads(threads);
      expect_identical(e.run_load(0.6), serial,
                       mech + " threads=" + std::to_string(threads));
    }
    e.set_step_threads(0);
    expect_identical(e.run_load(0.6), serial, mech + " back-to-serial");
  }
}

TEST(ParallelStep, BitIdenticalWithStaticFaults) {
  ExperimentSpec spec = small_spec("polsp");
  spec.fault_links = {0, 7, 13, 21};
  Experiment e(spec);
  const ResultRow serial = e.run_load(0.5);
  for (const int threads : {1, 2, 8}) {
    e.set_step_threads(threads);
    expect_identical(e.run_load(0.5), serial,
                     "faulted polsp threads=" + std::to_string(threads));
  }
}

TEST(ParallelStep, BitIdenticalThroughDynamicFaultRebuilds) {
  // Online fault events exercise table rebuilds (and candidate-cache
  // invalidation) while the pool is attached.
  const std::vector<FaultEvent> events = {{500, 3}, {900, 11}};
  ExperimentSpec spec = small_spec("polsp");
  Experiment e(spec);
  const DynamicResult serial = e.run_load_dynamic(0.4, events);
  e.set_step_threads(2);
  const DynamicResult par = e.run_load_dynamic(0.4, events);
  expect_identical(par.row, serial.row, "dynamic faults threads=2");
  EXPECT_EQ(par.dropped, serial.dropped);
}

TEST(ParallelStep, BitIdenticalCompletionMode) {
  ExperimentSpec spec = small_spec("minimal");
  Experiment e(spec);
  const CompletionResult serial = e.run_completion(20, 100, 100000);
  ASSERT_TRUE(serial.drained);
  e.set_step_threads(3);
  const CompletionResult par = e.run_completion(20, 100, 100000);
  EXPECT_TRUE(par.drained);
  EXPECT_EQ(par.completion_time, serial.completion_time);
}

TEST(ParallelStep, BitIdenticalWorkloadKind) {
  // Message-level workloads drive the Consume -> workload-callback path:
  // consumptions are scheduled by the link commit, and their callback
  // order must match exactly or message completion cycles move. The
  // auditor cross-checks the wheel's ring-buffer slots every pass.
  ExperimentSpec spec = small_spec("polsp");
  spec.sim.audit_interval = 512;
  WorkloadParams wp;
  wp.name = "alltoall";
  wp.msg_packets = 2;
  Experiment e(spec);
  const WorkloadResult serial = e.run_workload(wp, 500, 400000);
  ASSERT_TRUE(serial.drained);
  for (const int threads : {1, 2, 8}) {
    e.set_step_threads(threads);
    const WorkloadResult par = e.run_workload(wp, 500, 400000);
    const std::string what = "workload threads=" + std::to_string(threads);
    EXPECT_TRUE(par.drained) << what;
    EXPECT_EQ(par.completion_time, serial.completion_time) << what;
    EXPECT_EQ(par.phase_cycles, serial.phase_cycles) << what;
    EXPECT_EQ(par.num_messages, serial.num_messages) << what;
    EXPECT_EQ(par.total_packets, serial.total_packets) << what;
    EXPECT_EQ(par.avg_msg_latency, serial.avg_msg_latency) << what;
    EXPECT_EQ(par.p50_msg_latency, serial.p50_msg_latency) << what;
    EXPECT_EQ(par.p99_msg_latency, serial.p99_msg_latency) << what;
  }
}

TEST(ParallelStep, BitIdenticalMultitenantKind) {
  // Multi-tenant runs overlap several workloads on one fabric; admission
  // and every per-tenant SLO figure must be untouched by the thread count.
  ExperimentSpec spec = small_spec("polsp");
  spec.sim.audit_interval = 512;
  MultitenantParams mp;
  mp.isolated_baseline = false;
  JobSpec j0, j1;
  j0.workload.name = "alltoall";
  j0.workload.msg_packets = 2;
  j0.demand = 10;
  j0.arrival = 0;
  j1.workload.name = "ring_allreduce";
  j1.workload.msg_packets = 2;
  j1.demand = 6;
  j1.arrival = 100;
  mp.jobs = {j0, j1};
  Experiment e(spec);
  const MultitenantResult serial = e.run_multitenant(mp, 500, 400000);
  ASSERT_TRUE(serial.drained);
  for (const int threads : {1, 2, 8}) {
    e.set_step_threads(threads);
    const MultitenantResult par = e.run_multitenant(mp, 500, 400000);
    const std::string what = "multitenant threads=" + std::to_string(threads);
    EXPECT_EQ(par.completion_time, serial.completion_time) << what;
    EXPECT_EQ(par.total_packets, serial.total_packets) << what;
    ASSERT_EQ(par.jobs.size(), serial.jobs.size()) << what;
    for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
      const TenantJobStats& a = par.jobs[i];
      const TenantJobStats& b = serial.jobs[i];
      EXPECT_EQ(a.admitted, b.admitted) << what << " job " << i;
      EXPECT_EQ(a.completed, b.completed) << what << " job " << i;
      EXPECT_EQ(a.num_messages, b.num_messages) << what << " job " << i;
      EXPECT_EQ(a.total_packets, b.total_packets) << what << " job " << i;
      EXPECT_EQ(a.avg_msg_latency, b.avg_msg_latency) << what << " job " << i;
      EXPECT_EQ(a.p50_msg_latency, b.p50_msg_latency) << what << " job " << i;
      EXPECT_EQ(a.p99_msg_latency, b.p99_msg_latency) << what << " job " << i;
    }
  }
}

TEST(ParallelStep, BitIdenticalAtLongestLegalDelay) {
  // The longest delays the 64-slot event wheel holds: OutTailGone after
  // packet_length = 63 cycles, Consume after link_latency +
  // packet_length - 1 = 63 cycles, and a grant's upstream credit, at most
  // packet_length = 63 cycles ahead (one cycle after a drain that waits
  // for a tail up to 62 cycles behind the head), so all three can land in
  // the slot just behind the current one. 3 threads give uneven link-stage
  // partitions; the auditor cross-checks the wheel's in-flight credits
  // every pass.
  ExperimentSpec spec = small_spec("polsp");
  spec.sim.packet_length = 63;
  spec.sim.link_latency = 1;
  spec.sim.audit_interval = 256;
  Experiment e(spec);
  const ResultRow serial = e.run_load(0.6);
  EXPECT_GT(serial.packets, 0);
  for (const int threads : {1, 2, 3}) {
    e.set_step_threads(threads);
    expect_identical(e.run_load(0.6), serial,
                     "longest delay threads=" + std::to_string(threads));
  }
}

TEST(ParallelStep, AuditorStaysGreenUnderPool) {
  // The invariant auditor recomputes every incrementally maintained
  // structure from scratch; running it every 256 cycles with the pool
  // attached proves the pooled link phase leaves no drift.
  ExperimentSpec spec = small_spec("polsp");
  spec.sim.audit_interval = 256;
  Experiment e(spec);
  e.set_step_threads(4);
  const ResultRow row = e.run_load(0.7);
  EXPECT_GT(row.packets, 0);
}

/// Minimal routing that counts its ports() calls, and the calls made from
/// any thread other than \p stepping.
class CountingMinimal final : public RouteAlgorithm {
 public:
  CountingMinimal(std::thread::id stepping, std::atomic<int>& calls,
                  std::atomic<int>& off_thread)
      : stepping_(stepping), calls_(calls), off_thread_(off_thread) {}

  void ports(const NetworkContext& ctx, const Packet& p, SwitchId sw,
             std::vector<Candidate>& out) const override {
    ++calls_;
    if (std::this_thread::get_id() != stepping_) ++off_thread_;
    minimal_next_hops(ctx, p.dst_switch, sw, out);
  }

 private:
  std::thread::id stepping_;
  std::atomic<int>& calls_;
  std::atomic<int>& off_thread_;
};

TEST(ParallelStep, RoutingRunsOnTheSteppingThread) {
  // With a pool attached, only the link phase fans out: every candidate
  // computation, and with it every distance query, runs on the thread
  // that steps the Network.
  std::atomic<int> calls{0};
  std::atomic<int> off_thread{0};
  testutil::TestNet t = testutil::make_net(2, 4, 4, 4);
  RoutingMechanism mech = RoutingMechanism::ladder(
      std::make_unique<CountingMinimal>(std::this_thread::get_id(), calls,
                                        off_thread),
      2, "CountingMinimal");
  const std::unique_ptr<TrafficPattern> traffic =
      make_uniform_traffic(t.hx->num_servers());
  ThreadPool pool(4);
  Network net(t.ctx, mech, *traffic, SimConfig{}, 4, 7);
  net.set_step_pool(&pool);
  net.set_offered_load(1.0);
  net.run_cycles(300);
  EXPECT_GT(calls.load(), 0);
  EXPECT_EQ(off_thread.load(), 0);
}

} // namespace
} // namespace hxsp
