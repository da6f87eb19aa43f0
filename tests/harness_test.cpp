/// \file harness_test.cpp
/// Harness tests: presets match the paper's configurations, CLI options
/// map onto specs, Experiment wiring (escape only for SurePath), sweeps.

#include <gtest/gtest.h>

#include "harness/presets.hpp"
#include "harness/sweep.hpp"

namespace hxsp {
namespace {

TEST(Presets, Paper2DMatchesTable3) {
  const ExperimentSpec s = preset_2d(true);
  EXPECT_EQ(s.sides, (std::vector<int>{16, 16}));
  EXPECT_EQ(s.sim.num_vcs, 4);
  HyperX hx(s.sides, 16);
  EXPECT_EQ(hx.num_switches(), 256);
  EXPECT_EQ(hx.num_servers(), 4096);
}

TEST(Presets, Paper3DMatchesTable3) {
  const ExperimentSpec s = preset_3d(true);
  EXPECT_EQ(s.sides, (std::vector<int>{8, 8, 8}));
  EXPECT_EQ(s.sim.num_vcs, 6);
}

TEST(Presets, ReducedKeepsVcBudget) {
  EXPECT_EQ(preset_2d(false).sim.num_vcs, 4);
  EXPECT_EQ(preset_3d(false).sim.num_vcs, 6);
  EXPECT_LT(preset_2d(false).sides[0], preset_2d(true).sides[0]);
}

TEST(Presets, DefaultLoadsAscending) {
  for (bool paper : {false, true}) {
    const auto loads = default_loads(paper);
    ASSERT_GE(loads.size(), 5u);
    for (std::size_t i = 1; i < loads.size(); ++i)
      EXPECT_GT(loads[i], loads[i - 1]);
    EXPECT_DOUBLE_EQ(loads.back(), 1.0);
  }
}

TEST(Presets, SpecFromOptionsOverrides) {
  const char* argv[] = {"bench", "--side=4",  "--vcs=2", "--warmup=100",
                        "--measure=200",      "--seed=9", "--strict-escape",
                        "--no-shortcuts",     "--root=3"};
  Options opt(9, argv);
  const ExperimentSpec s = spec_from_options(opt, 2);
  EXPECT_EQ(s.sides, (std::vector<int>{4, 4}));
  EXPECT_EQ(s.sim.num_vcs, 2);
  EXPECT_EQ(s.warmup, 100);
  EXPECT_EQ(s.measure, 200);
  EXPECT_EQ(s.seed, 9u);
  EXPECT_TRUE(s.escape_strict_phase);
  EXPECT_FALSE(s.escape_shortcuts);
  EXPECT_EQ(s.escape_root, 3);
}

TEST(Presets, SpecFromOptionsPaperFlag) {
  const char* argv[] = {"bench", "--paper"};
  Options opt(2, argv);
  EXPECT_EQ(spec_from_options(opt, 3).sides, (std::vector<int>{8, 8, 8}));
  EXPECT_EQ(spec_from_options(opt, 2).sides, (std::vector<int>{16, 16}));
}

TEST(Presets, DescribeSimParametersMentionsTable2Values) {
  SimConfig cfg;
  const std::string s = describe_sim_parameters(cfg);
  EXPECT_NE(s.find("input buffer 8"), std::string::npos);
  EXPECT_NE(s.find("output buffer 4"), std::string::npos);
  EXPECT_NE(s.find("16 phits"), std::string::npos);
  EXPECT_NE(s.find("speedup 2"), std::string::npos);
}

TEST(Experiment, BuildsEscapeOnlyForSurePath) {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 2;
  s.mechanism = "omniwar";
  Experiment ladder(s);
  EXPECT_EQ(ladder.escape(), nullptr);
  s.mechanism = "polsp";
  Experiment sp(s);
  EXPECT_NE(sp.escape(), nullptr);
  EXPECT_EQ(sp.escape()->root(), 0);
}

TEST(Experiment, AppliesFaultsBeforeTables) {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 2;
  s.mechanism = "minimal";
  HyperX scratch(s.sides, 2);
  // Fail the direct link 0 -> (1,0): distance becomes 2.
  const Port p = scratch.port_towards(0, 0, 1);
  s.fault_links = {scratch.graph().port(0, p).link};
  Experiment e(s);
  EXPECT_EQ(e.distances().at(0, scratch.switch_at({1, 0})), 2);
}

TEST(Experiment, RejectsDisconnectingFaults) {
  ExperimentSpec s;
  s.sides = {2, 2};
  s.servers_per_switch = 1;
  s.mechanism = "minimal";
  HyperX scratch(s.sides, 1);
  // Kill both links of switch 0.
  s.fault_links = {scratch.graph().port(0, 0).link,
                   scratch.graph().port(0, 1).link};
  EXPECT_DEATH(Experiment{s}, "disconnect");
}

TEST(Experiment, RateSweepReturnsRowPerLoad) {
  ExperimentSpec s;
  s.sides = {2, 2};
  s.servers_per_switch = 2;
  s.mechanism = "minimal";
  s.warmup = 500;
  s.measure = 1000;
  ParallelSweep sweep(1);
  const auto results =
      sweep.run_tasks({TaskSpec::rate(s, 0.2), TaskSpec::rate(s, 0.4)});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_DOUBLE_EQ(std::get<ResultRow>(results[0]).offered, 0.2);
  EXPECT_DOUBLE_EQ(std::get<ResultRow>(results[1]).offered, 0.4);
  EXPECT_EQ(std::get<ResultRow>(results[0]).mechanism, "Minimal");
}

TEST(Experiment, WalkRouteHandlesUnreachable) {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 1;
  s.mechanism = "dor";
  HyperX scratch(s.sides, 1);
  const Port p = scratch.port_towards(0, 0, 2);
  s.fault_links = {scratch.graph().port(0, p).link};
  Experiment e(s);
  // DOR cannot reach (2,0) from (0,0) with the direct link dead.
  EXPECT_EQ(e.walk_route(0, scratch.switch_at({2, 0}), 16), -1);
  // But unaffected pairs still route.
  EXPECT_EQ(e.walk_route(0, scratch.switch_at({1, 1}), 16), 2);
}

} // namespace
} // namespace hxsp
