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

TEST(SimDetail, EscapeVcUnusedByLadders) {
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

TEST(SimDetailDeathTest, CrossbarLongerThanEventWheelRejected) {
  // A grant schedules its upstream credit one cycle after the crossbar
  // transfer ends: 63 phits at speedup 1 would put it 64 cycles ahead.
  ExperimentSpec s = k2_spec();
  s.sim.packet_length = 63;
  s.sim.xbar_speedup = 1;
  EXPECT_DEATH(
      {
        Experiment e(s);
        e.run_load(0.05);
      },
      "sim\\.xbar_speedup");
}

// A run-control value below its floor aborts naming the key and the
// value, instead of running with another meaning: a negative watchdog
// switched it off, a negative deadline ended the run at once, and a
// negative fault cycle fired the fault at cycle 0.
TEST(SimDetailDeathTest, NegativeRunControlValuesRejected) {
  const auto load = [](void (*edit)(SimConfig&)) {
    ExperimentSpec s = k2_spec();
    edit(s.sim);
    Experiment(s).run_load(0.05);
  };
  EXPECT_DEATH(load([](SimConfig& c) { c.xbar_latency = -1; }),
               "sim\\.xbar_latency = -1 is below 0");
  EXPECT_DEATH(load([](SimConfig& c) { c.watchdog_cycles = -1; }),
               "sim\\.watchdog_cycles = -1 is below 0");
  EXPECT_DEATH(load([](SimConfig& c) { c.audit_interval = -1; }),
               "sim\\.audit_interval = -1 is below 0");
  EXPECT_DEATH(load([](SimConfig& c) { c.telemetry_window = -1; }),
               "sim\\.telemetry_window = -1 is below 0");
  EXPECT_DEATH(load([](SimConfig& c) { c.trace_sample = -1; }),
               "sim\\.trace_sample = -1 is below 0");
  EXPECT_DEATH(load([](SimConfig& c) { c.flight_recorder = -1; }),
               "sim\\.flight_recorder = -1 is below 0");
  EXPECT_DEATH(Experiment(k2_spec()).run_completion(1, 10, -5),
               "max_cycles = -5 is below 0");
  // A zero deadline stays legal: the run ends before its first cycle.
  EXPECT_FALSE(Experiment(k2_spec()).run_completion(1, 10, 0).drained);
  ExperimentSpec triangle = k2_spec();
  triangle.sides = {3}; // failing one link leaves it connected
  EXPECT_DEATH(Experiment(triangle).run_load_dynamic(0.05, {{-5, 0}}),
               "events\\[0\\]\\.at = -5 is below 0");
}

// A range failure names the line that called the check, not the check
// helper's own line, so the location alone says which check fired.
TEST(SimDetailDeathTest, RangeFailureNamesTheCallingFile) {
  ExperimentSpec s = k2_spec();
  s.sim.watchdog_cycles = -1;
  EXPECT_DEATH(Experiment(s).run_load(0.05),
               "at [^ ]*sim/network\\.cpp:[0-9]+");
}

// An offered load below 0 and a series bucket below one cycle abort at
// each entry point naming the key and the value, instead of deep inside
// the server or the time series. An offered load of 0 stays legal.
TEST(SimDetailDeathTest, NegativeLoadAndEmptyBucketRejectedNamingTheKey) {
  EXPECT_DEATH(Experiment(k2_spec()).run_load(-0.5),
               "offered = -0\\.5 is below 0");
  EXPECT_DEATH(Experiment(k2_spec()).run_load_dynamic(-0.5, {}),
               "offered = -0\\.5 is below 0");
  EXPECT_DEATH(Experiment(k2_spec()).run_completion(1, 0, 1000),
               "bucket_width = 0 is below 1");
  EXPECT_DEATH(Experiment(k2_spec()).run_workload({}, 0, 1000),
               "bucket_width = 0 is below 1");
  EXPECT_DEATH(Experiment(k2_spec()).run_multitenant({}, 0, 1000),
               "bucket_width = 0 is below 1");
  EXPECT_EQ(Experiment(k2_spec()).run_load(0.0).accepted, 0.0);
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

// A VC budget below the mechanism's minimum (one rung, plus the escape VC
// under SurePath) would clamp Minimal's 2-VC rung to VC -1 and inject past
// the server's credit row, or leave SurePath no legal injection VC so no
// packet ever leaves a server. The Network constructor rejects both.
TEST(SimDetailDeathTest, MinimalRejectsOneVc) {
  ExperimentSpec s = k2_spec();
  s.mechanism = "minimal";
  s.sim.num_vcs = 1;
  EXPECT_DEATH(
      {
        Experiment e(s);
        e.run_load(0.05);
      },
      "sim\\.num_vcs = 1 but Minimal needs >= 2");
}

TEST(SimDetailDeathTest, PolSpRejectsOneVc) {
  ExperimentSpec s = k2_spec();
  s.sides = {2, 2};
  s.mechanism = "polsp";
  s.sim.num_vcs = 1;
  EXPECT_DEATH(
      {
        Experiment e(s);
        e.run_load(0.05);
      },
      "sim\\.num_vcs = 1 but PolSP needs >= 2");
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
