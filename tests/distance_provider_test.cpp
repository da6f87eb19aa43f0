/// \file distance_provider_test.cpp
/// ComputedHyperXDistance vs the dense reference table: value parity on
/// healthy and faulted fabrics, the adversarial interior-subcube fault
/// pattern, provider selection, disconnection handling, and the uint8 BFS
/// depth overflow guard.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "routing/minimal.hpp"
#include "routing/polarized.hpp"
#include "routing/valiant.hpp"
#include "topology/computed_distance.hpp"
#include "topology/distance.hpp"
#include "topology/faults.hpp"
#include "topology/hyperx.hpp"
#include "util/rng.hpp"

namespace hxsp {
namespace {

/// The link id joining two adjacent switches.
LinkId link_between(const Graph& g, SwitchId a, SwitchId b) {
  for (const auto& pi : g.ports(a))
    if (pi.neighbor == b) return pi.link;
  ADD_FAILURE() << "switches " << a << " and " << b << " are not adjacent";
  return kInvalid;
}

/// Full all-pairs parity between the computed provider and a dense table
/// built over the same graph state.
void expect_parity(const HyperX& hx, const ComputedHyperXDistance& comp) {
  const DistanceTable dense(hx.graph());
  ASSERT_EQ(comp.num_switches(), dense.num_switches());
  EXPECT_EQ(comp.connected(), dense.connected());
  for (SwitchId a = 0; a < hx.num_switches(); ++a)
    for (SwitchId b = 0; b < hx.num_switches(); ++b)
      ASSERT_EQ(comp.at(a, b), dense.at(a, b)) << "a=" << a << " b=" << b;
  if (dense.connected()) {
    EXPECT_EQ(comp.diameter(), dense.diameter());
  }
}

TEST(ComputedDistance, HealthyIsAlgebraicEverywhere) {
  const HyperX hx({4, 4, 4}, 1);
  const ComputedHyperXDistance comp(hx);
  EXPECT_EQ(comp.num_dead_links(), 0);
  EXPECT_EQ(comp.diameter(), 3);
  for (SwitchId a = 0; a < hx.num_switches(); ++a)
    for (SwitchId b = 0; b < hx.num_switches(); ++b)
      ASSERT_EQ(comp.at(a, b), hx.hamming_distance(a, b));
  EXPECT_EQ(comp.fallback_rows_built(), 0);
  expect_parity(hx, comp);
}

TEST(ComputedDistance, MixedSidesHealthyParity) {
  const HyperX hx({5, 2, 3}, 1);
  const ComputedHyperXDistance comp(hx);
  expect_parity(hx, comp);
}

TEST(ComputedDistance, SingleFaultParity) {
  HyperX hx({4, 4}, 1);
  hx.graph().fail_link(0);
  const ComputedHyperXDistance comp(hx);
  EXPECT_EQ(comp.num_dead_links(), 1);
  EXPECT_EQ(comp.num_dirty_switches(), 2);
  expect_parity(hx, comp);
}

TEST(ComputedDistance, RandomFaultSetsParity) {
  // Several seeds, increasing fault counts; skip draws that disconnect.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    HyperX hx({3, 3, 3}, 1);
    Graph& g = hx.graph();
    Rng rng(seed);
    int injected = 0;
    while (injected < 20) {
      const LinkId l = static_cast<LinkId>(
          rng.next_below(static_cast<std::uint64_t>(g.num_links())));
      if (!g.link_alive(l)) continue;
      g.fail_link(l);
      if (!g.connected()) {
        g.restore_link(l);
        continue;
      }
      ++injected;
    }
    const ComputedHyperXDistance comp(hx);
    EXPECT_EQ(comp.num_dead_links(), 20);
    expect_parity(hx, comp);
  }
}

TEST(ComputedDistance, InteriorSubcubeFaultsDefeatEndpointChecks) {
  // The adversarial case for any "fall back only when an endpoint touches
  // a fault" criterion: kill the six links interior to the minimal
  // subcube of a=(0,0,0), b=(1,1,1) on a 3x3x3. Both endpoints keep every
  // port, every 3-hop path is severed (all of them run through the dead
  // layer1-layer2 subcube links), and the true distance becomes 4 via a
  // detour outside the subcube. The minimal-path DP finds no surviving
  // path and the query falls back to exact BFS.
  HyperX hx({3, 3, 3}, 1);
  Graph& g = hx.graph();
  const SwitchId a = hx.switch_at({0, 0, 0});
  const SwitchId b = hx.switch_at({1, 1, 1});
  const std::vector<std::pair<std::vector<int>, std::vector<int>>> interior = {
      {{1, 0, 0}, {1, 1, 0}}, {{1, 0, 0}, {1, 0, 1}},
      {{0, 1, 0}, {1, 1, 0}}, {{0, 1, 0}, {0, 1, 1}},
      {{0, 0, 1}, {1, 0, 1}}, {{0, 0, 1}, {0, 1, 1}}};
  for (const auto& [u, v] : interior)
    g.fail_link(link_between(g, hx.switch_at(u), hx.switch_at(v)));
  ASSERT_TRUE(g.connected());

  const ComputedHyperXDistance comp(hx);
  // No dead link touches an endpoint, yet the pair needs the BFS.
  for (const auto& pi : g.ports(a)) EXPECT_TRUE(g.link_alive(pi.link));
  for (const auto& pi : g.ports(b)) EXPECT_TRUE(g.link_alive(pi.link));
  EXPECT_EQ(hx.hamming_distance(a, b), 3);
  EXPECT_EQ(comp.at(a, b), 4);
  EXPECT_EQ(comp.fallback_rows_built(), 1);
  expect_parity(hx, comp);
}

TEST(ComputedDistance, DirtySubcubeWithIntactPathSkipsBfs) {
  // Kill one link incident to a subcube corner but not part of the
  // subcube itself: the (0,0,0)-(1,1,1) subcube contains the dirty switch
  // (1,1,0), yet every minimal-path link is alive. The intact-minimal-path
  // DP must answer h without running a BFS — this is the common case near
  // faults, and the reason the provider stays cheap at scale.
  HyperX hx({3, 3, 3}, 1);
  Graph& g = hx.graph();
  const SwitchId a = hx.switch_at({0, 0, 0});
  const SwitchId b = hx.switch_at({1, 1, 1});
  g.fail_link(link_between(g, hx.switch_at({1, 1, 0}), hx.switch_at({1, 1, 2})));
  const ComputedHyperXDistance comp(hx);
  EXPECT_EQ(comp.at(a, b), 3); // the subcube is dirty, the distance did not grow
  EXPECT_EQ(comp.fallback_rows_built(), 0);
  expect_parity(hx, comp);
}

TEST(ComputedDistance, AllCornersDirtyProbesLinksBetweenThem) {
  // Every corner of the (0,0)-(1,1) subcube on a 3x3 touches a dead link
  // to coordinate 2, and the subcube link (0,0)-(1,0) is dead as well. A
  // hop between two dirty corners may be dead, so the DP must probe each
  // one: the (1,0) branch is severed, the (0,1) branch survives, and the
  // distance stays h = 2 without a BFS.
  HyperX hx({3, 3}, 1);
  Graph& g = hx.graph();
  const std::vector<std::pair<std::vector<int>, std::vector<int>>> dead = {
      {{0, 0}, {2, 0}}, {{1, 0}, {1, 2}}, {{0, 1}, {0, 2}},
      {{1, 1}, {2, 1}}, {{0, 0}, {1, 0}}};
  for (const auto& [u, v] : dead)
    g.fail_link(link_between(g, hx.switch_at(u), hx.switch_at(v)));
  ASSERT_TRUE(g.connected());
  const SwitchId a = hx.switch_at({0, 0});
  const SwitchId b = hx.switch_at({1, 1});

  const ComputedHyperXDistance comp(hx);
  for (const auto& corner : std::vector<std::vector<int>>{
           {0, 0}, {1, 0}, {0, 1}, {1, 1}}) {
    bool dirty = false;
    for (const auto& pi : g.ports(hx.switch_at(corner)))
      dirty = dirty || !g.link_alive(pi.link);
    EXPECT_TRUE(dirty);
  }
  const int h = hx.hamming_distance(a, b);
  EXPECT_EQ(h, 2);
  EXPECT_EQ(comp.at(a, b), h);
  EXPECT_EQ(comp.at(b, a), h);
  EXPECT_EQ(comp.fallback_rows_built(), 0);
  expect_parity(hx, comp);
}

TEST(ComputedDistance, RebuildTracksFaultChurn) {
  HyperX hx({4, 4}, 1);
  ComputedHyperXDistance comp(hx);
  hx.graph().fail_link(3);
  comp.rebuild();
  expect_parity(hx, comp);
  hx.graph().restore_link(3);
  comp.rebuild();
  EXPECT_EQ(comp.num_dead_links(), 0);
  expect_parity(hx, comp);
}

TEST(ComputedDistance, DisconnectionIsExplicit) {
  // Cut every link of switch 0: at() reports kUnreachable, connected()
  // goes false, diameter() is a loud abort, not a sentinel.
  HyperX hx({3, 3}, 1);
  Graph& g = hx.graph();
  for (const auto& pi : g.ports(0)) g.fail_link(pi.link);
  const ComputedHyperXDistance comp(hx);
  EXPECT_FALSE(comp.connected());
  EXPECT_EQ(comp.diameter_if_connected(), std::nullopt);
  EXPECT_EQ(comp.at(0, 1), kUnreachable);
  EXPECT_FALSE(comp.reachable(0, 1));
  EXPECT_TRUE(comp.reachable(1, 2));
}

TEST(ComputedDistanceDeathTest, DiameterAbortsOnDisconnectedGraph) {
  HyperX hx({3, 3}, 1);
  Graph& g = hx.graph();
  for (const auto& pi : g.ports(0)) g.fail_link(pi.link);
  const ComputedHyperXDistance comp(hx);
  EXPECT_DEATH((void)comp.diameter(), "disconnected");
}

TEST(ComputedDistance, FactorySelectsByScale) {
  const HyperX small({4, 4}, 1); // 16 switches: dense
  const auto dense = make_distance_provider(small);
  EXPECT_NE(dense->row_ptr(0), nullptr);

  const ComputedHyperXDistance forced(small);
  EXPECT_EQ(forced.row_ptr(0), nullptr);
  for (SwitchId a = 0; a < small.num_switches(); ++a)
    for (SwitchId b = 0; b < small.num_switches(); ++b)
      ASSERT_EQ(forced.at(a, b), dense->at(a, b));

  // 18^3 = 5832 switches > kDenseDistanceSwitchLimit: Auto goes
  // computed, and construction is instant because nothing is O(N^2).
  const HyperX big({18, 18, 18}, 1);
  const auto prov = make_distance_provider(big);
  EXPECT_EQ(prov->row_ptr(0), nullptr);
  EXPECT_EQ(prov->diameter(), 3);
  EXPECT_EQ(prov->at(0, big.num_switches() - 1), 3);
}

TEST(ComputedDistance, DistRowMatchesAt) {
  HyperX hx({3, 3, 3}, 1);
  hx.graph().fail_link(2);
  ASSERT_TRUE(hx.graph().connected());
  const ComputedHyperXDistance comp(hx);
  for (SwitchId anchor = 0; anchor < hx.num_switches(); anchor += 7) {
    const DistRow row(comp, anchor);
    for (SwitchId x = 0; x < hx.num_switches(); ++x)
      ASSERT_EQ(row[x], comp.at(anchor, x));
  }
}

/// Route-set parity: the three distance-consuming algorithms must produce
/// identical candidate ports with either provider, healthy and faulted.
class RouteSetParity : public ::testing::Test {
 protected:
  void expect_route_parity(const HyperX& hx) {
    const DistanceTable dense(hx.graph());
    const ComputedHyperXDistance comp(hx);

    NetworkContext dctx, cctx;
    dctx.graph = cctx.graph = &hx.graph();
    dctx.hyperx = cctx.hyperx = &hx;
    dctx.num_vcs = cctx.num_vcs = 4;
    dctx.packet_length = cctx.packet_length = 16;
    dctx.dist = &dense;
    cctx.dist = &comp;

    const MinimalAlgorithm minimal;
    const ValiantAlgorithm valiant;
    const PolarizedAlgorithm polarized;
    const RouteAlgorithm* algos[] = {&minimal, &valiant, &polarized};

    Rng rng(7);
    for (int trial = 0; trial < 200; ++trial) {
      const SwitchId src = static_cast<SwitchId>(
          rng.next_below(static_cast<std::uint64_t>(hx.num_switches())));
      const SwitchId dst = static_cast<SwitchId>(
          rng.next_below(static_cast<std::uint64_t>(hx.num_switches())));
      const SwitchId cur = static_cast<SwitchId>(
          rng.next_below(static_cast<std::uint64_t>(hx.num_switches())));
      if (cur == dst) continue;
      Packet p;
      p.id = 1;
      p.src_switch = src;
      p.dst_switch = dst;
      p.src_server = src;
      p.dst_server = dst;
      p.length = 16;
      p.valiant_mid = static_cast<SwitchId>(
          rng.next_below(static_cast<std::uint64_t>(hx.num_switches())));
      p.valiant_phase2 = (trial % 2) == 0;
      for (const RouteAlgorithm* algo : algos) {
        std::vector<PortCand> want, got;
        algo->ports(dctx, p, cur, want);
        algo->ports(cctx, p, cur, got);
        ASSERT_EQ(got.size(), want.size())
            << algo->name() << " cur=" << cur << " dst=" << dst;
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].port, want[i].port) << algo->name();
          EXPECT_EQ(got[i].penalty, want[i].penalty) << algo->name();
          EXPECT_EQ(got[i].deroute, want[i].deroute) << algo->name();
        }
      }
    }
  }
};

TEST_F(RouteSetParity, HealthyFabric) {
  const HyperX hx({4, 4, 4}, 1);
  expect_route_parity(hx);
}

TEST_F(RouteSetParity, FaultedFabric) {
  HyperX hx({4, 4, 4}, 1);
  Graph& g = hx.graph();
  Rng rng(3);
  int injected = 0;
  while (injected < 24) {
    const LinkId l = static_cast<LinkId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_links())));
    if (!g.link_alive(l)) continue;
    g.fail_link(l);
    if (!g.connected()) {
      g.restore_link(l);
      continue;
    }
    ++injected;
  }
  expect_route_parity(hx);
}

TEST(BfsOverflowDeathTest, DepthBeyondUint8Aborts) {
  // A 300-switch path has eccentricity 299 > 254 = the largest depth the
  // uint8 storage can hold; the old code silently saturated (a saturated
  // entry looks closer than it is — corrupting minimal routing), the
  // guard makes it abort.
  Graph g(300);
  for (SwitchId s = 0; s + 1 < 300; ++s) g.add_link(s, s + 1);
  EXPECT_DEATH((void)g.bfs(0), "overflow");
}

TEST(BfsOverflow, DepthsUpTo254Fit) {
  Graph g(255);
  for (SwitchId s = 0; s + 1 < 255; ++s) g.add_link(s, s + 1);
  const auto row = g.bfs(0);
  EXPECT_EQ(row[254], 254);
}

} // namespace
} // namespace hxsp
