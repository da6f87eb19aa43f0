/// \file polarized_test.cpp
/// Polarized routing tests: exhaustive verification of the paper's Table 1
/// (allowed (Ds,Dt) combinations, Dmu priorities), cycle-filtering of the
/// Dmu = 0 cases, liveness and the 2x-diameter route-length bound.

#include <gtest/gtest.h>

#include "routing/polarized.hpp"
#include "test_util.hpp"
#include "topology/faults.hpp"

namespace hxsp {
namespace {

using testutil::make_net;
using testutil::make_packet;
using testutil::TestNet;

/// Recomputes (Ds, Dt) for a candidate and checks Table 1 membership.
void verify_candidate_against_table1(const TestNet& t, const Packet& p,
                                     SwitchId c, const Candidate& pc) {
  const SwitchId n = t.hx->graph().port(c, pc.port).neighbor;
  const int ds = t.dist->at(n, p.src_switch) - t.dist->at(c, p.src_switch);
  const int dt = t.dist->at(n, p.dst_switch) - t.dist->at(c, p.dst_switch);
  const int dmu = ds - dt;
  ASSERT_GE(dmu, 0) << "candidate decreases mu";
  switch (dmu) {
    case 2:
      EXPECT_EQ(ds, 1);
      EXPECT_EQ(dt, -1);
      EXPECT_EQ(pc.penalty, PolarizedAlgorithm::kDmu2Penalty);
      break;
    case 1:
      EXPECT_TRUE((ds == 1 && dt == 0) || (ds == 0 && dt == -1))
          << "Dmu=1 must be (+1,0) or (0,-1)";
      EXPECT_EQ(pc.penalty, PolarizedAlgorithm::kDmu1Penalty);
      break;
    case 0: {
      EXPECT_TRUE((ds == 1 && dt == 1) || (ds == -1 && dt == -1))
          << "Dmu=0 must be (+1,+1) or (-1,-1); (0,0) is excluded";
      EXPECT_EQ(pc.penalty, PolarizedAlgorithm::kDmu0Penalty);
      const bool first_half =
          t.dist->at(c, p.src_switch) < t.dist->at(c, p.dst_switch);
      if (ds == 1) { EXPECT_TRUE(first_half); }
      if (ds == -1) { EXPECT_FALSE(first_half); }
      break;
    }
    default:
      FAIL() << "Dmu out of range: " << dmu;
  }
}

TEST(Polarized, Table1ExhaustiveOn2D) {
  auto t = make_net(2, 4);
  PolarizedAlgorithm algo;
  std::vector<Candidate> out;
  for (SwitchId s = 0; s < t.hx->num_switches(); ++s) {
    for (SwitchId d = 0; d < t.hx->num_switches(); ++d) {
      if (s == d) continue;
      for (SwitchId c = 0; c < t.hx->num_switches(); ++c) {
        if (c == d) continue;
        Packet p = make_packet(t, s, d);
        out.clear();
        algo.ports(t.ctx, p, c, out);
        EXPECT_FALSE(out.empty())
            << "no polarized candidate at c=" << c << " for " << s << "->" << d;
        for (const auto& pc : out)
          verify_candidate_against_table1(t, p, c, pc);
      }
    }
  }
}

TEST(Polarized, MinimalHopAlwaysOfferedFaultFree) {
  // In a fault-free Hamming graph some candidate always exists while
  // c != t (paper §3.1.2); in particular a hop decreasing d(c,t).
  auto t = make_net(3, 3);
  PolarizedAlgorithm algo;
  std::vector<Candidate> out;
  for (SwitchId s = 0; s < t.hx->num_switches(); ++s) {
    for (SwitchId d = 0; d < t.hx->num_switches(); ++d) {
      if (s == d) continue;
      for (SwitchId c = 0; c < t.hx->num_switches(); ++c) {
        if (c == d) continue;
        Packet p = make_packet(t, s, d);
        out.clear();
        algo.ports(t.ctx, p, c, out);
        EXPECT_FALSE(out.empty())
            << "no polarized candidate at c=" << c << " for " << s << "->" << d;
      }
    }
  }
}

/// Greedy walk following the best (lowest-penalty, lowest-port) candidate.
int polarized_walk(const TestNet& t, SwitchId src, SwitchId dst, int max_hops) {
  PolarizedAlgorithm algo;
  Packet p = testutil::make_packet(t, src, dst);
  SwitchId c = src;
  std::vector<Candidate> out;
  int hops = 0;
  while (c != dst) {
    if (hops > max_hops) return -1;
    out.clear();
    algo.ports(t.ctx, p, c, out);
    if (out.empty()) return -1;
    const Candidate* best = &out.front();
    for (const auto& pc : out)
      if (pc.penalty < best->penalty ||
          (pc.penalty == best->penalty && pc.port < best->port))
        best = &pc;
    c = t.hx->graph().port(c, best->port).neighbor;
    ++hops;
  }
  return hops;
}

TEST(Polarized, GreedyRoutesAtMostTwiceDiameter) {
  // Paper §3.1.2: polarized routes in the HyperX are at most twice the
  // network diameter.
  auto t = make_net(2, 5);
  const int bound = 2 * t.dist->diameter();
  for (SwitchId a = 0; a < t.hx->num_switches(); ++a)
    for (SwitchId b = 0; b < t.hx->num_switches(); ++b) {
      if (a == b) continue;
      const int hops = polarized_walk(t, a, b, bound);
      ASSERT_GE(hops, 0) << a << "->" << b;
      EXPECT_LE(hops, bound);
    }
}

TEST(Polarized, GreedyFollowsMinimalWhenAvailable) {
  // With the greedy choice the best candidate has Dmu = 2 when one exists,
  // so adjacent pairs route in one hop.
  auto t = make_net(2, 4);
  for (SwitchId a = 0; a < t.hx->num_switches(); ++a)
    for (const auto& pi : t.hx->graph().ports(a))
      EXPECT_EQ(polarized_walk(t, a, pi.neighbor, 4), 1);
}

TEST(Polarized, WeightNeverDecreasesAlongWalk) {
  auto t = make_net(3, 3);
  PolarizedAlgorithm algo;
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const SwitchId s = static_cast<SwitchId>(
        rng.next_below(static_cast<std::uint64_t>(t.hx->num_switches())));
    const SwitchId d = static_cast<SwitchId>(
        rng.next_below(static_cast<std::uint64_t>(t.hx->num_switches())));
    if (s == d) continue;
    Packet p = make_packet(t, s, d);
    SwitchId c = s;
    int mu = -t.dist->at(s, d); // d(c,s) - d(c,t) at c = s
    std::vector<Candidate> out;
    int guard = 0;
    while (c != d && guard++ < 32) {
      out.clear();
      algo.ports(t.ctx, p, c, out);
      ASSERT_FALSE(out.empty());
      const auto& pick = out[rng.next_below(out.size())];
      c = t.hx->graph().port(c, pick.port).neighbor;
      const int mu2 = static_cast<int>(t.dist->at(c, s)) - t.dist->at(c, d);
      EXPECT_GE(mu2, mu);
      mu = mu2;
    }
  }
}

TEST(Polarized, UsesDistanceTablesUnderFaults) {
  // Polarized reads BFS tables, so its candidates adapt to faults (§1).
  auto t = make_net(2, 4);
  Rng rng(9);
  apply_faults(t.hx->graph(),
               random_fault_links(t.hx->graph(), 10, rng, true));
  t.rebuild();
  PolarizedAlgorithm algo;
  std::vector<Candidate> out;
  int pairs = 0, with_candidates = 0;
  for (SwitchId a = 0; a < t.hx->num_switches(); ++a)
    for (SwitchId b = 0; b < t.hx->num_switches(); ++b) {
      if (a == b) continue;
      Packet p = make_packet(t, a, b);
      out.clear();
      algo.ports(t.ctx, p, a, out);
      ++pairs;
      with_candidates += !out.empty();
      for (const auto& pc : out)
        EXPECT_TRUE(t.hx->graph().port_alive(a, pc.port));
    }
  // Most pairs keep candidates; SurePath's escape covers the rest.
  EXPECT_GT(with_candidates, pairs * 9 / 10);
}

TEST(Polarized, WorksOnGenericGraphs) {
  // Polarized needs only distance tables; check liveness on a torus-like
  // random regular graph (fault-free) with bounded walks.
  TestNet t;
  t.hx = std::make_unique<HyperX>(std::vector<int>{3, 3}, 1);
  t.rebuild();
  t.ctx.num_vcs = 4;
  for (SwitchId a = 0; a < t.hx->num_switches(); ++a)
    for (SwitchId b = 0; b < t.hx->num_switches(); ++b)
      if (a != b) { EXPECT_GE(polarized_walk(t, a, b, 8), 0); }
}

} // namespace
} // namespace hxsp
