/// \file linkstats_test.cpp
/// Tests for the per-link phit counters (Router::link_phits) and the hot
/// links the telemetry capture ranks from them, including the physical
/// invariants they must respect (loads bounded by link bandwidth) and the
/// root-hotspot signature under Star faults that the paper's §6 analysis
/// relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "harness/experiment.hpp"
#include "hot_links.hpp"

namespace hxsp {
namespace {

using testutil::run_load_hot_links;

TEST(LinkStats, SingleFlowSaturatesItsLink) {
  // K2 with one server per switch under shift traffic: the duplex link
  // carries ~1 phit/cycle in each direction at offered 1.0.
  ExperimentSpec s;
  s.sides = {2};
  s.servers_per_switch = 1;
  s.mechanism = "minimal";
  s.pattern = "shift";
  s.sim.num_vcs = 2;
  s.warmup = 500;
  s.measure = 2000;
  auto [row, hot] = run_load_hot_links(s, 1.0, 4);
  ASSERT_EQ(hot.size(), 2u); // both directions of the single link
  for (const auto& h : hot) {
    EXPECT_GT(h.load, 0.9);
    EXPECT_LE(h.load, 1.0 + 1e-9);
  }
  EXPECT_GT(row.accepted, 0.9);
}

TEST(LinkStats, LoadsNeverExceedLinkBandwidth) {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 4;
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.warmup = 1000;
  s.measure = 2000;
  auto [row, hot] = run_load_hot_links(s, 1.0, 64);
  (void)row;
  ASSERT_FALSE(hot.empty());
  for (const auto& h : hot) EXPECT_LE(h.load, 1.0 + 1e-9);
  // Entries are sorted hottest first.
  for (std::size_t i = 1; i < hot.size(); ++i)
    EXPECT_GE(hot[i - 1].load, hot[i].load);
}

TEST(LinkStats, HotspotConcentratesAroundStarRoot) {
  // Star fault: the 3 surviving root links must rank among the hottest in
  // the network (the paper's in-cast analysis for Fig 10).
  ExperimentSpec s;
  s.sides = {4, 4, 4};
  s.servers_per_switch = 4;
  s.mechanism = "omnisp";
  s.pattern = "rpn";
  s.sim.num_vcs = 4;
  s.warmup = 1000;
  s.measure = 3000;
  HyperX scratch(s.sides, 4);
  const SwitchId center = scratch.switch_at({2, 2, 2});
  const ShapeFault star = star_fault(scratch, center, 3);
  s.fault_links = star.links;
  s.escape_root = center;
  auto [row, hot] = run_load_hot_links(s, 1.0, 1 << 20);
  (void)row;
  ASSERT_FALSE(hot.empty());
  // The in-cast signature: at least two of the root's three surviving
  // links run saturated (the whole neighbourhood funnels through them).
  int saturated_root_links = 0;
  for (const auto& h : hot)
    if ((h.from == center || h.to == center) && h.load >= 0.9)
      ++saturated_root_links;
  EXPECT_GE(saturated_root_links, 2);
}

TEST(LinkStats, MeanBelowMax) {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 2;
  s.mechanism = "minimal";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.warmup = 500;
  s.measure = 1000;
  const int sps = 2;
  HyperX hx(s.sides, sps);
  DistanceTable dist(hx.graph());
  auto mech = make_mechanism("minimal");
  NetworkContext ctx{&hx.graph(), &hx, &dist, nullptr, 4};
  Rng seed(1);
  auto traffic = make_traffic("uniform", hx, seed);
  Network net(ctx, *mech, *traffic, s.sim, sps, 5);
  net.set_offered_load(0.5);
  net.run_cycles(500);
  net.begin_window();
  // The counters run from cycle 0: a window's load is the difference of
  // the readings at its two ends.
  std::vector<std::int64_t> at_start;
  for (SwitchId sw = 0; sw < hx.graph().num_switches(); ++sw)
    for (Port p = 0; p < hx.graph().degree(sw); ++p)
      at_start.push_back(net.router(sw).link_phits(p));
  net.run_cycles(1000);
  net.end_window();
  // Per-link loads over the 1000-cycle window, from the routers' counters.
  std::int64_t sum = 0, mx = 0, around_switch0 = 0;
  int links = 0;
  for (SwitchId sw = 0; sw < hx.graph().num_switches(); ++sw) {
    for (Port p = 0; p < hx.graph().degree(sw); ++p) {
      const std::int64_t v =
          net.router(sw).link_phits(p) -
          at_start[static_cast<std::size_t>(links)];
      sum += v;
      mx = std::max(mx, v);
      ++links;
      if (sw == 0 || hx.graph().port(sw, p).neighbor == 0) around_switch0 += v;
    }
  }
  const double mean = static_cast<double>(sum) / (1000.0 * links);
  EXPECT_GT(mean, 0.0);
  EXPECT_GE(static_cast<double>(mx) / 1000.0, mean);
  EXPECT_LE(mx, 1000);
  EXPECT_GT(around_switch0, 0);
}

TEST(LinkStats, CountersAreCumulativeAcrossTheWindow) {
  ExperimentSpec s;
  s.sides = {2};
  s.servers_per_switch = 1;
  s.mechanism = "minimal";
  s.pattern = "shift";
  s.sim.num_vcs = 2;
  const HyperX hx(s.sides, 1);
  DistanceTable dist(hx.graph());
  auto mech = make_mechanism("minimal");
  NetworkContext ctx{&hx.graph(), &hx, &dist, nullptr, 2};
  Rng seed(1);
  auto traffic = make_traffic("shift", hx, seed);
  SimConfig cfg = s.sim;
  cfg.num_vcs = 2;
  Network net(ctx, *mech, *traffic, cfg, 1, 5);
  net.set_offered_load(1.0);
  net.run_cycles(1000);
  // Opening the measurement window resets no counter: the warmup's phits
  // stay counted, and a window subtracts a snapshot.
  const std::int64_t before = net.router(0).link_phits(0);
  EXPECT_GT(before, 0);
  net.begin_window();
  EXPECT_EQ(net.router(0).link_phits(0), before);
  net.run_cycles(100);
  EXPECT_GT(net.router(0).link_phits(0), before);
}

} // namespace
} // namespace hxsp
