/// \file robustness_test.cpp
/// Edge-case and robustness coverage: mixed-side HyperX, every-root escape
/// sweeps, Valiant under faults, degenerate completion runs.

#include <gtest/gtest.h>

#include "harness/experiment.hpp"

namespace hxsp {
namespace {

TEST(Robustness, MixedSideHyperXSimulates) {
  ExperimentSpec s;
  s.sides = {4, 6}; // rectangular 2D HyperX
  s.servers_per_switch = 3;
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.warmup = 800;
  s.measure = 1600;
  Experiment e(s);
  EXPECT_EQ(e.hyperx().num_switches(), 24);
  const ResultRow r = e.run_load(0.5);
  EXPECT_GT(r.accepted, 0.35);
}

TEST(Robustness, MixedSideOmniDelivery) {
  ExperimentSpec s;
  s.sides = {3, 5};
  s.servers_per_switch = 1;
  s.mechanism = "omnisp";
  s.sim.num_vcs = 4;
  Experiment e(s);
  for (SwitchId a = 0; a < e.hyperx().num_switches(); ++a)
    for (SwitchId b = 0; b < e.hyperx().num_switches(); ++b)
      if (a != b) { EXPECT_GE(e.walk_route(a, b, 60), 0); }
}

TEST(Robustness, EveryEscapeRootDelivers) {
  // The escape must be live no matter which switch roots it.
  ExperimentSpec s;
  s.sides = {3, 3};
  s.servers_per_switch = 1;
  s.mechanism = "polsp";
  s.sim.num_vcs = 4;
  for (SwitchId root = 0; root < 9; ++root) {
    s.escape_root = root;
    Experiment e(s);
    for (SwitchId a = 0; a < 9; ++a)
      for (SwitchId b = 0; b < 9; ++b)
        if (a != b) {
          EXPECT_GE(e.walk_route(a, b, 40), 0) << "root " << root;
        }
  }
}

TEST(Robustness, ValiantReroutesUnderFaults) {
  // Valiant's phases are table-minimal, so it adapts to faults as long as
  // the ladder is deep enough for the stretched phases.
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 1;
  s.mechanism = "valiant";
  s.sim.num_vcs = 8; // headroom for fault-stretched routes
  HyperX scratch(s.sides, 1);
  Rng rng(3);
  s.fault_links = random_fault_links(scratch.graph(), 8, rng, true);
  Experiment e(s);
  int delivered = 0, total = 0;
  for (SwitchId a = 0; a < 16; ++a)
    for (SwitchId b = 0; b < 16; ++b) {
      if (a == b) continue;
      ++total;
      delivered += e.walk_route(a, b, 64) >= 0;
    }
  EXPECT_EQ(delivered, total);
}

TEST(Robustness, MinimalTwoStepLadderOn3D) {
  ExperimentSpec s;
  s.sides = {3, 3, 3};
  s.servers_per_switch = 2;
  s.mechanism = "minimal";
  s.sim.num_vcs = 6; // 2 VCs per step x diameter 3
  s.warmup = 600;
  s.measure = 1500;
  Experiment e(s);
  const ResultRow r = e.run_load(0.6);
  EXPECT_GT(r.accepted, 0.5);
}

TEST(Robustness, CompletionWithZeroPackets) {
  ExperimentSpec s;
  s.sides = {2, 2};
  s.servers_per_switch = 1;
  s.mechanism = "minimal";
  s.sim.num_vcs = 2;
  Experiment e(s);
  const CompletionResult res = e.run_completion(0, 100, 1000);
  EXPECT_TRUE(res.drained);
  EXPECT_LE(res.completion_time, 1);
}

TEST(Robustness, RepeatedRunsIndependent) {
  // run_load spins up a fresh network: results must not drift run-to-run.
  ExperimentSpec s;
  s.sides = {3, 3};
  s.servers_per_switch = 2;
  s.mechanism = "omnisp";
  s.warmup = 500;
  s.measure = 1000;
  s.sim.num_vcs = 4;
  Experiment e(s);
  const double first = e.run_load(0.5).accepted;
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(e.run_load(0.5).accepted, first);
}

TEST(Robustness, HotspotTrafficDoesNotStall) {
  // Hotspot is inadmissible: the network saturates around the spot, but
  // the simulation must keep making progress (no watchdog abort).
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 2;
  s.mechanism = "polsp";
  s.pattern = "hotspot";
  s.sim.num_vcs = 4;
  s.warmup = 800;
  s.measure = 2000;
  Experiment e(s);
  const ResultRow r = e.run_load(0.5);
  EXPECT_GT(r.accepted, 0.05);
  EXPECT_LT(r.jain, 1.0);
}

TEST(Robustness, FourDimensionalHyperX) {
  // n = 4 is beyond the paper's practical range but must still work.
  ExperimentSpec s;
  s.sides = {2, 2, 2, 2};
  s.servers_per_switch = 1;
  s.mechanism = "omnisp";
  s.sim.num_vcs = 4;
  s.warmup = 500;
  s.measure = 1000;
  Experiment e(s);
  EXPECT_EQ(e.hyperx().num_switches(), 16);
  EXPECT_EQ(e.distances().diameter(), 4);
  const ResultRow r = e.run_load(0.4);
  EXPECT_GT(r.accepted, 0.25);
}

} // namespace
} // namespace hxsp
