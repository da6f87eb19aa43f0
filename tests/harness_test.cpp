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
                        "--measure=200",      "--seed=9", "--memoryless-escape",
                        "--no-shortcuts",     "--root=3"};
  Options opt(9, argv);
  const ExperimentSpec s = spec_from_options(opt, 2);
  EXPECT_EQ(s.sides, (std::vector<int>{4, 4}));
  EXPECT_EQ(s.sim.num_vcs, 2);
  EXPECT_EQ(s.warmup, 100);
  EXPECT_EQ(s.measure, 200);
  EXPECT_EQ(s.seed, 9u);
  EXPECT_FALSE(s.escape_strict_phase);
  EXPECT_FALSE(s.escape_shortcuts);
  EXPECT_EQ(s.escape_root, 3);
}

TEST(Presets, SpecFromOptionsPaperFlag) {
  const char* argv[] = {"bench", "--paper"};
  Options opt(2, argv);
  EXPECT_EQ(spec_from_options(opt, 3).sides, (std::vector<int>{8, 8, 8}));
  EXPECT_EQ(spec_from_options(opt, 2).sides, (std::vector<int>{16, 16}));
  // The strict up*/down* escape is the default; only --memoryless-escape
  // selects the paper's memoryless rule.
  EXPECT_TRUE(spec_from_options(opt, 2).escape_strict_phase);
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

TEST(Experiment, RejectsEscapePenaltyOutsideInt16) {
  // A penalty is added to queue scores in int arithmetic and stored in an
  // int16 candidate field: INT_MAX overflows the score sum, and a negative
  // one would silently make the escape preferred over routing.
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 1;
  s.mechanism = "polsp";
  s.escape_penalties.up = 2147483647;
  EXPECT_DEATH(Experiment{s},
               "spec.escape_penalties.up = 2147483647 is outside \\[0, 32767\\]");
  s.escape_penalties.up = 112;
  s.escape_penalties.red3 = -5;
  EXPECT_DEATH(Experiment{s},
               "spec.escape_penalties.red3 = -5 is outside \\[0, 32767\\]");
  s.escape_penalties.red3 = 32767; // the largest legal value builds
  Experiment e(s);
  EXPECT_NE(e.escape(), nullptr);
}

TEST(Experiment, RejectsBadShapeAndRunControlNamingTheKey) {
  // Each bad value is rejected at the spec boundary, naming the key,
  // before the structure it would break is built.
  const auto base = [] {
    ExperimentSpec s;
    s.sides = {4, 4};
    s.servers_per_switch = 1;
    s.mechanism = "polsp";
    return s;
  };
  ExperimentSpec s = base();
  s.sides = {};
  EXPECT_DEATH(Experiment{s}, "spec.sides = \\[\\] lists no dimension");
  s = base();
  s.sides = {4, 1};
  EXPECT_DEATH(Experiment{s}, "spec.sides\\[1\\] = 1 is below 2");
  s = base();
  s.servers_per_switch = 0;
  EXPECT_DEATH(Experiment{s},
               "spec.servers_per_switch = 0 is neither -1 \\(one per side\\) "
               "nor >= 1");
  s = base();
  s.escape_root = 16;
  EXPECT_DEATH(Experiment{s},
               "spec.escape_root = 16 is not a switch id: the fabric has 16 "
               "switches");
  s = base();
  s.warmup = -10;
  EXPECT_DEATH(Experiment{s}, "spec.warmup = -10 is below 0");
  s = base();
  s.measure = 0;
  EXPECT_DEATH(Experiment{s}, "spec.measure = 0 is below 1");
  // The boundary values build, and a root past the fabric is harmless
  // when the mechanism builds no escape.
  s = base();
  s.servers_per_switch = -1;
  s.warmup = 0;
  s.measure = 1;
  s.escape_root = 15;
  EXPECT_NE(Experiment(s).escape(), nullptr);
  s.mechanism = "minimal";
  s.escape_root = 99;
  EXPECT_EQ(Experiment(s).escape(), nullptr);
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
