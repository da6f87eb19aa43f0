/// \file sim_detail_test.cpp
/// Microarchitectural validation of the simulator: exact pipeline timing
/// on a two-switch network, duplex links, buffer backpressure, and the
/// server injection path. These tests pin down the timing model described
/// in sim/router.hpp so regressions are caught at cycle granularity.

#include <gtest/gtest.h>

#include "harness/experiment.hpp"

namespace hxsp {
namespace {

/// A 1-D HyperX of side 2 is a single link between two switches — the
/// smallest network with a switch-to-switch hop.
ExperimentSpec k2_spec() {
  ExperimentSpec s;
  s.sides = {2};
  s.servers_per_switch = 1;
  s.mechanism = "minimal";
  s.pattern = "shift"; // server 0 <-> server 1
  s.sim.num_vcs = 2;
  s.warmup = 200;
  s.measure = 1000;
  return s;
}

TEST(SimDetail, SingleHopPipelineTiming) {
  // One packet per server, duplex exchange over the single link.
  // Expected pipeline (16-phit packet, xbar speedup 2, latencies 1):
  //   t=0  injection link starts; head at router t=1, tail t=16
  //   t=1  allocation grant; output-buffer head t=2
  //   t=2  switch link starts; head at far router t=3, tail t=18
  //   t=3  eject grant; eject buffer head t=4
  //   t=4  eject link starts; tail reaches the server at t=20
  // so both packets complete at cycle 20 (+1 engine step to observe).
  Experiment e(k2_spec());
  const CompletionResult res = e.run_completion(1, 10, 1000);
  ASSERT_TRUE(res.drained);
  EXPECT_GE(res.completion_time, 20);
  EXPECT_LE(res.completion_time, 22);
}

TEST(SimDetail, SerializationDominatesBackToBack) {
  // N packets per server over one duplex link: steady-state is one packet
  // per 16 cycles per direction; completion ~ N*16 + pipeline fill.
  Experiment e(k2_spec());
  const long n = 32;
  const CompletionResult res = e.run_completion(n, 100, 10000);
  ASSERT_TRUE(res.drained);
  EXPECT_GE(res.completion_time, n * 16);
  EXPECT_LE(res.completion_time, n * 16 + 64);
}

TEST(SimDetail, DuplexLinkCarriesBothDirections) {
  // Offered 1.0 in both directions simultaneously must be sustainable:
  // each direction has its own channel.
  ExperimentSpec s = k2_spec();
  s.warmup = 500;
  s.measure = 2000;
  Experiment e(s);
  const ResultRow r = e.run_load(1.0);
  EXPECT_GT(r.accepted, 0.93);
}

TEST(SimDetail, ThroughputCappedByLinkBandwidth) {
  // Two servers per switch sharing one switch-to-switch link: per-server
  // accepted load saturates at ~0.5 phits/cycle.
  ExperimentSpec s = k2_spec();
  s.servers_per_switch = 2;
  s.warmup = 500;
  s.measure = 2000;
  Experiment e(s);
  const ResultRow r = e.run_load(1.0);
  EXPECT_GT(r.accepted, 0.42);
  EXPECT_LT(r.accepted, 0.55);
}

TEST(SimDetail, LatencyIncludesQueueing) {
  ExperimentSpec s = k2_spec();
  s.servers_per_switch = 2; // contention => queueing
  s.warmup = 500;
  s.measure = 2000;
  Experiment e(s);
  const double lat_light = e.run_load(0.1).avg_latency;
  const double lat_heavy = e.run_load(0.95).avg_latency;
  EXPECT_GT(lat_light, 19.0); // at least the pipeline + serialization
  EXPECT_GT(lat_heavy, lat_light + 5.0);
}

TEST(SimDetail, GeneratedLoadMatchesBernoulliRate) {
  ExperimentSpec s = k2_spec();
  s.warmup = 1000;
  s.measure = 8000;
  Experiment e(s);
  const ResultRow r = e.run_load(0.37);
  EXPECT_NEAR(r.generated, 0.37, 0.03);
}

TEST(SimDetail, WindowExcludesWarmupTraffic) {
  // Accepted load is measured only inside the window: a tiny measure
  // window after a long warmup still reports the steady-state rate, not
  // an average over the whole run.
  ExperimentSpec s = k2_spec();
  s.warmup = 3000;
  s.measure = 500;
  Experiment e(s);
  const ResultRow r = e.run_load(0.5);
  EXPECT_NEAR(r.accepted, 0.5, 0.08);
  EXPECT_EQ(r.cycles, 500);
}

TEST(SimDetail, EscapeVcUnusedByLadderMechanisms) {
  // Ladder mechanisms never produce escape candidates; their escape VC
  // stats must stay zero even at saturation.
  ExperimentSpec s = k2_spec();
  s.mechanism = "valiant";
  s.sim.num_vcs = 4;
  Experiment e(s);
  const ResultRow r = e.run_load(1.0);
  EXPECT_DOUBLE_EQ(r.escape_frac, 0.0);
}

TEST(SimDetail, TinyBuffersStillFlow) {
  ExperimentSpec s = k2_spec();
  s.sim.input_buffer_packets = 1;
  s.sim.output_buffer_packets = 1;
  s.warmup = 500;
  s.measure = 2000;
  Experiment e(s);
  const ResultRow r = e.run_load(1.0);
  // Single-packet buffers serialize the pipeline but must not stall it.
  EXPECT_GT(r.accepted, 0.3);
}

TEST(SimDetail, LongPacketsScaleSerialization) {
  ExperimentSpec s = k2_spec();
  s.sim.packet_length = 32;
  Experiment e(s);
  const CompletionResult res = e.run_completion(1, 10, 2000);
  ASSERT_TRUE(res.drained);
  // Twice the phits: tail arrives ~2x later than the 16-phit pipeline.
  EXPECT_GE(res.completion_time, 36);
  EXPECT_LE(res.completion_time, 44);
}

TEST(SimDetail, ZeroLatencyCrossbarRejected) {
  // Config sanity: derived helpers behave.
  SimConfig cfg;
  EXPECT_EQ(cfg.xbar_cycles(), 8);
  EXPECT_EQ(cfg.input_buffer_phits(), 128);
  EXPECT_EQ(cfg.output_buffer_phits(), 64);
  cfg.packet_length = 15;
  EXPECT_EQ(cfg.xbar_cycles(), 8); // ceil(15/2)
}

// Config validation: a scheduled delay past the 64-slot event wheel would
// wrap into an earlier slot and corrupt the run without a sound in
// Release, and a zero crossbar speedup divides by zero in xbar_cycles().
// The Network constructor rejects both, naming the field.
TEST(SimDetailDeathTest, PacketLongerThanEventWheelRejected) {
  ExperimentSpec s = k2_spec();
  s.sim.packet_length = 80;
  EXPECT_DEATH(
      {
        Experiment e(s);
        e.run_load(0.05);
      },
      "sim\\.packet_length");
}

TEST(SimDetailDeathTest, ZeroCrossbarSpeedupRejected) {
  ExperimentSpec s = k2_spec();
  s.sim.xbar_speedup = 0;
  EXPECT_DEATH(
      {
        Experiment e(s);
        e.run_load(0.05);
      },
      "sim\\.xbar_speedup");
}

TEST(SimDetail, ServerQueueDepthLimitsBurstiness) {
  // With a 1-packet injection queue, generated load under backpressure is
  // visibly below offered at saturation.
  ExperimentSpec s = k2_spec();
  s.servers_per_switch = 2;
  s.sim.server_queue_packets = 1;
  s.warmup = 500;
  s.measure = 2000;
  Experiment e(s);
  const ResultRow r = e.run_load(1.0);
  EXPECT_LT(r.generated, 0.8);
}

} // namespace
} // namespace hxsp
