/// \file sim_test.cpp
/// Simulator-engine tests: packet conservation, latency sanity, throughput
/// bounds, backpressure, watchdog cleanliness and determinism. All on tiny
/// topologies so the whole file runs in seconds.

#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "workload/run.hpp"

namespace hxsp {
namespace {

ExperimentSpec tiny_2d(const std::string& mech, const std::string& pattern) {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 4;
  s.mechanism = mech;
  s.pattern = pattern;
  s.sim.num_vcs = 4;
  s.warmup = 1500;
  s.measure = 3000;
  s.seed = 7;
  return s;
}

TEST(Sim, ZeroLoadDeliversNothing) {
  Experiment e(tiny_2d("minimal", "uniform"));
  const ResultRow row = e.run_load(0.0);
  EXPECT_EQ(row.packets, 0);
  EXPECT_DOUBLE_EQ(row.accepted, 0.0);
}

TEST(Sim, LowLoadLatencyIsSane) {
  Experiment e(tiny_2d("minimal", "uniform"));
  const ResultRow row = e.run_load(0.05);
  ASSERT_GT(row.packets, 50);
  // A packet needs at least its 16-phit serialization plus two link
  // traversals; uncongested delivery should stay well under 200 cycles.
  EXPECT_GT(row.avg_latency, 16.0);
  EXPECT_LT(row.avg_latency, 200.0);
}

TEST(Sim, AcceptedTracksOfferedBelowSaturation) {
  Experiment e(tiny_2d("minimal", "uniform"));
  for (double load : {0.1, 0.3, 0.5}) {
    const ResultRow row = e.run_load(load);
    EXPECT_NEAR(row.accepted, load, 0.05) << "load " << load;
    EXPECT_NEAR(row.generated, load, 0.05) << "load " << load;
  }
}

TEST(Sim, AcceptedNeverExceedsOfferedOrUnity) {
  for (const char* mech : {"minimal", "valiant", "omniwar", "polarized",
                           "omnisp", "polsp"}) {
    Experiment e(tiny_2d(mech, "uniform"));
    const ResultRow row = e.run_load(1.0);
    EXPECT_LE(row.accepted, 1.0 + 1e-9) << mech;
    EXPECT_GT(row.accepted, 0.05) << mech;
    EXPECT_LE(row.accepted, row.generated + 0.05) << mech;
  }
}

TEST(Sim, LatencyGrowsWithLoad) {
  Experiment e(tiny_2d("omniwar", "uniform"));
  const double lat_low = e.run_load(0.1).avg_latency;
  const double lat_high = e.run_load(0.9).avg_latency;
  EXPECT_GT(lat_high, lat_low);
}

TEST(Sim, JainNearOneOnUniformLowLoad) {
  Experiment e(tiny_2d("minimal", "uniform"));
  const ResultRow row = e.run_load(0.2);
  EXPECT_GT(row.jain, 0.95);
}

TEST(Sim, PacketsConserveAfterDrain) {
  ExperimentSpec s = tiny_2d("polsp", "uniform");
  Experiment e(s);
  // Completion run: everything generated must be consumed.
  const CompletionResult res = e.run_completion(/*packets_per_server=*/20,
                                                /*bucket=*/500,
                                                /*max_cycles=*/100000);
  ASSERT_TRUE(res.drained);
  std::int64_t consumed = 0;
  for (std::size_t b = 0; b < res.series.num_buckets(); ++b)
    consumed += res.series.bucket(b);
  EXPECT_EQ(consumed, 20L * 16 * res.num_servers);
}

TEST(Sim, DrainedNetworkHoldsNoPackets) {
  // Every packet the servers generated was consumed and destroyed: a
  // drained network's packet counter is back to zero.
  ExperimentSpec spec;
  spec.sides = {4, 4};
  spec.servers_per_switch = 2;
  spec.mechanism = "polsp";
  spec.pattern = "uniform";
  spec.sim.num_vcs = 4;
  Experiment e(spec);
  Network net(e.context(), e.mechanism(), e.traffic(), spec.sim,
              spec.resolved_servers_per_switch(), spec.seed);
  CompletionSource source(64);
  source.start(net);
  ASSERT_TRUE(net.run_until_drained(400000));
  EXPECT_EQ(net.packets_in_system(), 0);
  EXPECT_EQ(net.metrics().total_consumed_packets(), 32 * 64);
}

TEST(Sim, CompletionTimeBoundedBelowBySerialisation) {
  Experiment e(tiny_2d("polsp", "uniform"));
  const CompletionResult res = e.run_completion(10, 500, 100000);
  ASSERT_TRUE(res.drained);
  // 10 packets x 16 phits through a 1 phit/cycle injection link.
  EXPECT_GE(res.completion_time, 160);
}

TEST(Sim, DeterministicAcrossRuns) {
  ExperimentSpec s = tiny_2d("polsp", "rsp");
  const ResultRow a = Experiment(s).run_load(0.7);
  const ResultRow b = Experiment(s).run_load(0.7);
  EXPECT_DOUBLE_EQ(a.accepted, b.accepted);
  EXPECT_DOUBLE_EQ(a.avg_latency, b.avg_latency);
  EXPECT_DOUBLE_EQ(a.jain, b.jain);
  EXPECT_EQ(a.packets, b.packets);
}

TEST(Sim, SeedChangesResults) {
  ExperimentSpec s = tiny_2d("polsp", "uniform");
  const ResultRow a = Experiment(s).run_load(0.7);
  s.seed = 8;
  const ResultRow b = Experiment(s).run_load(0.7);
  EXPECT_NE(a.packets, b.packets);
}

TEST(Sim, SelfAddressedPacketsDeliverLocally) {
  // shift pattern with num_servers/2 offset never self-addresses, but rsp
  // may; simplest check: uniform on a single-switch "HyperX" degenerates
  // to pure ejection... single switch is not allowed (sides >= 2), so use
  // a 2x2 and verify traffic flows at all.
  ExperimentSpec s = tiny_2d("minimal", "uniform");
  s.sides = {2, 2};
  s.servers_per_switch = 2;
  Experiment e(s);
  const ResultRow row = e.run_load(0.5);
  EXPECT_GT(row.accepted, 0.3);
}

TEST(Sim, BackpressureLimitsGeneration) {
  // At offered 1.0 with an adversarial pattern, injection queues fill and
  // the generated load drops below offered.
  ExperimentSpec s = tiny_2d("minimal", "dcr");
  Experiment e(s);
  const ResultRow row = e.run_load(1.0);
  EXPECT_LT(row.generated, 0.98);
}

TEST(Sim, EscapeFractionZeroWithoutEscapeMechanism) {
  Experiment e(tiny_2d("omniwar", "uniform"));
  const ResultRow row = e.run_load(0.5);
  EXPECT_DOUBLE_EQ(row.escape_frac, 0.0);
  EXPECT_DOUBLE_EQ(row.forced_frac, 0.0);
}

TEST(Sim, EscapeCarriesSomeLoadForSurePath) {
  Experiment e(tiny_2d("polsp", "uniform"));
  const ResultRow row = e.run_load(0.9);
  // The escape subnetwork accepts some opportunistic load even fault-free.
  EXPECT_GE(row.escape_frac, 0.0);
  EXPECT_LT(row.escape_frac, 0.9);
}

TEST(Sim, WatchdogQuietOnHealthySaturation) {
  // Saturating the network must not trip the stall watchdog (deadlock
  // freedom smoke test; the watchdog aborts the process if it fires).
  for (const char* mech : {"omnisp", "polsp", "omniwar", "polarized"}) {
    ExperimentSpec s = tiny_2d(mech, "dcr");
    s.warmup = 500;
    s.measure = 4000;
    Experiment e(s);
    const ResultRow row = e.run_load(1.0);
    EXPECT_GT(row.accepted, 0.1) << mech;
  }
}

TEST(Sim, ThreeDimensionalNetworkRuns) {
  ExperimentSpec s;
  s.sides = {2, 2, 2};
  s.servers_per_switch = 2;
  s.mechanism = "polsp";
  s.pattern = "rpn";
  s.sim.num_vcs = 6;
  s.warmup = 1000;
  s.measure = 2000;
  Experiment e(s);
  const ResultRow row = e.run_load(0.6);
  EXPECT_GT(row.accepted, 0.2);
}

TEST(Sim, FewVcsStillWork) {
  // SurePath needs only 2 VCs (1 routing + 1 escape) to be correct (§3.1.2).
  ExperimentSpec s = tiny_2d("polsp", "uniform");
  s.sim.num_vcs = 2;
  Experiment e(s);
  const ResultRow row = e.run_load(0.6);
  EXPECT_GT(row.accepted, 0.3);
}

} // namespace
} // namespace hxsp
