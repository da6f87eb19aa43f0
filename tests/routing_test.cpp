/// \file routing_test.cpp
/// Tests for the base route sets (Minimal and its shared next-hop helper,
/// DOR, Valiant, Omnidimensional) and the Ladder VC discipline.

#include <gtest/gtest.h>

#include <set>

#include "routing/dor.hpp"
#include "routing/factory.hpp"
#include "routing/minimal.hpp"
#include "routing/omnidimensional.hpp"
#include "routing/valiant.hpp"
#include "test_util.hpp"
#include "topology/computed_distance.hpp"
#include "topology/faults.hpp"

namespace hxsp {
namespace {

using testutil::make_net;
using testutil::make_packet;

TEST(Minimal, AllMinimalNeighboursOffered) {
  auto t = make_net(2, 4);
  MinimalAlgorithm algo;
  const SwitchId src = t.hx->switch_at({0, 0});
  const SwitchId dst = t.hx->switch_at({2, 3});
  Packet p = make_packet(t, src, dst);
  std::vector<PortCand> out;
  algo.ports(t.ctx, p, src, out);
  // Distance 2: exactly the two aligning neighbours (2,0) and (0,3).
  ASSERT_EQ(out.size(), 2u);
  std::set<SwitchId> nbrs;
  for (const auto& pc : out) {
    EXPECT_EQ(pc.penalty, 0);
    nbrs.insert(t.hx->graph().port(src, pc.port).neighbor);
  }
  EXPECT_TRUE(nbrs.count(t.hx->switch_at({2, 0})));
  EXPECT_TRUE(nbrs.count(t.hx->switch_at({0, 3})));
}

TEST(Minimal, ReroutesAroundFaults) {
  auto t = make_net(2, 4);
  const SwitchId src = t.hx->switch_at({0, 0});
  const SwitchId dst = t.hx->switch_at({3, 0});
  // Kill the direct row link: distance becomes 2 through any detour.
  t.hx->graph().fail_link(t.hx->graph().port(src, t.hx->port_towards(src, 0, 3)).link);
  t.rebuild();
  EXPECT_EQ(t.dist->at(src, dst), 2);
  MinimalAlgorithm algo;
  Packet p = make_packet(t, src, dst);
  std::vector<PortCand> out;
  algo.ports(t.ctx, p, src, out);
  EXPECT_FALSE(out.empty());
  for (const auto& pc : out) {
    EXPECT_TRUE(t.hx->graph().port_alive(src, pc.port));
    EXPECT_EQ(t.dist->at(t.hx->graph().port(src, pc.port).neighbor, dst), 1);
  }
}

TEST(Minimal, MaxHopsIsDiameter) {
  auto t = make_net(3, 4);
  MinimalAlgorithm algo;
  EXPECT_EQ(algo.max_hops(t.ctx), 3);
}

/// Minimal next hops by definition: every alive port of \p sw, in port
/// order, whose neighbour is one hop closer to \p target. Reads the port
/// table and point distances only, not the alive-port view or HyperX
/// coordinates the helper under test uses.
std::vector<PortCand> next_hops_by_full_scan(const Graph& g,
                                             const DistanceProvider& dist,
                                             SwitchId target, SwitchId sw) {
  std::vector<PortCand> out;
  const int d = dist.at(sw, target);
  if (d == kUnreachable || d == 0) return out;
  for (Port p = 0; p < g.degree(sw); ++p)
    if (g.port_alive(sw, p) && dist.at(g.port(sw, p).neighbor, target) == d - 1)
      out.push_back({p, 0, false});
  return out;
}

TEST(MinimalNextHops, MatchFullPortScanOnEveryPair) {
  struct Case {
    std::vector<int> sides;
    int faults;
  };
  const std::vector<Case> cases = {
      {{4, 4, 4}, 0}, {{4, 4, 4}, 20}, {{3, 5, 4}, 16}, {{6, 3}, 12}};
  long undetoured = 0;  // pairs at distance == Hamming > 0
  long detoured = 0;    // pairs at distance > Hamming > 0, with ctx.hyperx set
  for (const Case& c : cases) {
    HyperX hx(c.sides, 1);
    Rng rng(41 + static_cast<std::uint64_t>(c.faults));
    for (LinkId l : random_fault_links(hx.graph(), c.faults, rng))
      hx.graph().fail_link(l);
    const DistanceTable dense(hx.graph());
    const ComputedHyperXDistance computed(hx);
    const DistanceProvider* const providers[] = {&dense, &computed};
    const HyperX* const views[] = {&hx, nullptr};
    for (const DistanceProvider* dist : providers) {
      for (const HyperX* view : views) {
        SCOPED_TRACE(testing::Message()
                     << hx.describe() << " faults=" << c.faults
                     << (dist == &dense ? " dense" : " computed")
                     << (view ? " hyperx" : " no-hyperx"));
        NetworkContext ctx;
        ctx.graph = &hx.graph();
        ctx.hyperx = view;
        ctx.dist = dist;
        std::vector<PortCand> got;
        for (SwitchId target = 0; target < hx.num_switches(); ++target) {
          for (SwitchId sw = 0; sw < hx.num_switches(); ++sw) {
            got.clear();
            minimal_next_hops(ctx, target, sw, got);
            const std::vector<PortCand> want =
                next_hops_by_full_scan(hx.graph(), *dist, target, sw);
            ASSERT_EQ(got.size(), want.size()) << sw << "->" << target;
            for (std::size_t i = 0; i < got.size(); ++i) {
              EXPECT_EQ(got[i].port, want[i].port) << sw << "->" << target;
              EXPECT_EQ(got[i].penalty, 0);
              EXPECT_FALSE(got[i].deroute);
            }
            const int h = hx.hamming_distance(sw, target);
            const int d = dist->at(sw, target);
            if (view == nullptr || h == 0 || d == kUnreachable) continue;
            ++(d == h ? undetoured : detoured);
          }
        }
      }
    }
  }
  // Both branches of the helper ran: the O(dims) Hamming path and the full
  // scan of detoured pairs.
  EXPECT_GT(undetoured, 0);
  EXPECT_GT(detoured, 0);
}

TEST(Dor, SingleCandidateLowestDimensionFirst) {
  auto t = make_net(3, 4);
  DorAlgorithm algo;
  const SwitchId src = t.hx->switch_at({0, 1, 2});
  const SwitchId dst = t.hx->switch_at({3, 3, 2});
  Packet p = make_packet(t, src, dst);
  std::vector<PortCand> out;
  algo.ports(t.ctx, p, src, out);
  ASSERT_EQ(out.size(), 1u);
  // Dimension 0 corrected first: neighbour (3,1,2).
  EXPECT_EQ(t.hx->graph().port(src, out[0].port).neighbor,
            t.hx->switch_at({3, 1, 2}));
}

TEST(Dor, StuckWhenUniqueLinkDies) {
  // The paper's motivating failure: one dead link leaves DOR without any
  // route for the pairs that needed it (§1, §6).
  auto t = make_net(2, 4);
  const SwitchId src = t.hx->switch_at({0, 0});
  const SwitchId dst = t.hx->switch_at({2, 0});
  t.hx->graph().fail_link(
      t.hx->graph().port(src, t.hx->port_towards(src, 0, 2)).link);
  t.rebuild();
  DorAlgorithm algo;
  Packet p = make_packet(t, src, dst);
  std::vector<PortCand> out;
  algo.ports(t.ctx, p, src, out);
  EXPECT_TRUE(out.empty()); // no candidate at all: undeliverable
}

TEST(Valiant, TwoPhasesThroughIntermediate) {
  auto t = make_net(2, 4);
  ValiantAlgorithm algo;
  Packet p = make_packet(t, t.hx->switch_at({0, 0}), t.hx->switch_at({3, 3}));
  Rng rng(5);
  algo.on_inject(t.ctx, p, rng);
  ASSERT_GE(p.valiant_mid, 0);
  ASSERT_LT(p.valiant_mid, t.hx->num_switches());

  // Phase 1 candidates approach the intermediate.
  if (!p.valiant_phase2 && p.src_switch != p.valiant_mid) {
    std::vector<PortCand> out;
    algo.ports(t.ctx, p, p.src_switch, out);
    ASSERT_FALSE(out.empty());
    for (const auto& pc : out)
      EXPECT_EQ(t.dist->at(t.hx->graph().port(p.src_switch, pc.port).neighbor,
                           p.valiant_mid),
                t.dist->at(p.src_switch, p.valiant_mid) - 1);
  }

  // Arrival at the intermediate flips to phase 2.
  algo.on_arrival(t.ctx, p, p.valiant_mid);
  EXPECT_TRUE(p.valiant_phase2);
  std::vector<PortCand> out;
  if (p.valiant_mid != p.dst_switch) {
    algo.ports(t.ctx, p, p.valiant_mid, out);
    ASSERT_FALSE(out.empty());
    for (const auto& pc : out)
      EXPECT_EQ(t.dist->at(t.hx->graph().port(p.valiant_mid, pc.port).neighbor,
                           p.dst_switch),
                t.dist->at(p.valiant_mid, p.dst_switch) - 1);
  }
}

TEST(Valiant, MidEqualSourceStartsInPhase2) {
  auto t = make_net(2, 2);
  ValiantAlgorithm algo;
  Packet p = make_packet(t, 0, 3);
  // Draw intermediates until src comes up (small network, a few tries).
  Rng rng(1);
  bool saw = false;
  for (int i = 0; i < 64 && !saw; ++i) {
    algo.on_inject(t.ctx, p, rng);
    if (p.valiant_mid == p.src_switch) {
      EXPECT_TRUE(p.valiant_phase2);
      saw = true;
    }
  }
  EXPECT_TRUE(saw);
}

TEST(Omni, MinimalAndDerouteCandidates) {
  auto t = make_net(2, 4);
  OmnidimensionalAlgorithm algo; // m = n = 2
  const SwitchId src = t.hx->switch_at({0, 0});
  const SwitchId dst = t.hx->switch_at({2, 0}); // aligned in dim 1
  Packet p = make_packet(t, src, dst);
  std::vector<PortCand> out;
  algo.ports(t.ctx, p, src, out);
  // Only dimension 0 is unaligned: 1 minimal + 2 deroutes (coords 1,3).
  ASSERT_EQ(out.size(), 3u);
  int minimal = 0, deroutes = 0;
  for (const auto& pc : out) {
    const SwitchId nbr = t.hx->graph().port(src, pc.port).neighbor;
    EXPECT_EQ(t.hx->coord(nbr, 1), 0) << "left an aligned dimension";
    if (pc.deroute) {
      EXPECT_EQ(pc.penalty, 64);
      ++deroutes;
    } else {
      EXPECT_EQ(pc.penalty, 0);
      EXPECT_EQ(nbr, dst);
      ++minimal;
    }
  }
  EXPECT_EQ(minimal, 1);
  EXPECT_EQ(deroutes, 2);
}

TEST(Omni, BudgetExhaustedLeavesOnlyMinimal) {
  auto t = make_net(2, 4);
  OmnidimensionalAlgorithm algo;
  Packet p = make_packet(t, t.hx->switch_at({0, 0}), t.hx->switch_at({2, 3}));
  p.deroutes = 2; // m = n = 2 spent
  std::vector<PortCand> out;
  algo.ports(t.ctx, p, p.src_switch, out);
  ASSERT_EQ(out.size(), 2u); // one aligning hop per unaligned dimension
  for (const auto& pc : out) EXPECT_FALSE(pc.deroute);
}

TEST(Omni, CommitCountsDeroutes) {
  auto t = make_net(2, 4);
  OmnidimensionalAlgorithm algo;
  const SwitchId src = t.hx->switch_at({0, 0});
  Packet p = make_packet(t, src, t.hx->switch_at({2, 0}));
  // Hop to (1,0): a deroute (target coord is 2).
  const Port q = t.hx->port_towards(src, 0, 1);
  algo.commit(t.ctx, p, src, {q, 64, true});
  EXPECT_EQ(p.deroutes, 1);
  // Hop to (2,0) from (1,0): minimal, count unchanged.
  const SwitchId mid = t.hx->switch_at({1, 0});
  algo.commit(t.ctx, p, mid, {t.hx->port_towards(mid, 0, 2), 0, false});
  EXPECT_EQ(p.deroutes, 1);
}

TEST(Omni, NeverLeavesAlignedDimensions) {
  auto t = make_net(3, 4);
  OmnidimensionalAlgorithm algo;
  const SwitchId src = t.hx->switch_at({1, 2, 3});
  const SwitchId dst = t.hx->switch_at({3, 2, 3}); // dims 1,2 aligned
  Packet p = make_packet(t, src, dst);
  std::vector<PortCand> out;
  algo.ports(t.ctx, p, src, out);
  for (const auto& pc : out)
    EXPECT_EQ(t.hx->port_dim(src, pc.port), 0);
}

TEST(Omni, SkipsFaultyPorts) {
  auto t = make_net(2, 4);
  const SwitchId src = t.hx->switch_at({0, 0});
  const SwitchId dst = t.hx->switch_at({2, 0});
  t.hx->graph().fail_link(
      t.hx->graph().port(src, t.hx->port_towards(src, 0, 2)).link);
  t.rebuild();
  OmnidimensionalAlgorithm algo;
  Packet p = make_packet(t, src, dst);
  std::vector<PortCand> out;
  algo.ports(t.ctx, p, src, out);
  // Minimal candidate gone; the two deroutes remain.
  ASSERT_EQ(out.size(), 2u);
  for (const auto& pc : out) EXPECT_TRUE(pc.deroute);
}

TEST(Omni, MaxHopsIsNPlusM) {
  auto t = make_net(3, 4);
  EXPECT_EQ(OmnidimensionalAlgorithm().max_hops(t.ctx), 6);
  EXPECT_EQ(OmnidimensionalAlgorithm(1).max_hops(t.ctx), 4);
}

TEST(Ladder, OneStepVcFollowsHops) {
  auto t = make_net(2, 4);
  const RoutingMechanism mech =
      RoutingMechanism::ladder(std::make_unique<MinimalAlgorithm>(), 1, "test");
  Packet p = make_packet(t, t.hx->switch_at({0, 0}), t.hx->switch_at({1, 1}));
  std::vector<Candidate> out;
  RouteScratch scratch;
  mech.candidates(t.ctx, p, p.src_switch, scratch, out);
  ASSERT_FALSE(out.empty());
  for (const auto& c : out) EXPECT_EQ(c.vc, 0);
  p.hops = 1;
  out.clear();
  mech.candidates(t.ctx, p, t.hx->switch_at({1, 0}), scratch, out);
  for (const auto& c : out) EXPECT_EQ(c.vc, 1);
}

TEST(Ladder, TwoStepOffersPairOfVcs) {
  auto t = make_net(2, 4);
  const RoutingMechanism mech =
      RoutingMechanism::ladder(std::make_unique<MinimalAlgorithm>(), 2, "Minimal");
  Packet p = make_packet(t, t.hx->switch_at({0, 0}), t.hx->switch_at({1, 1}));
  std::vector<Candidate> out;
  RouteScratch scratch;
  mech.candidates(t.ctx, p, p.src_switch, scratch, out);
  std::set<Vc> vcs;
  for (const auto& c : out) vcs.insert(c.vc);
  EXPECT_EQ(vcs, (std::set<Vc>{0, 1}));
  p.hops = 1;
  out.clear();
  mech.candidates(t.ctx, p, t.hx->switch_at({1, 0}), scratch, out);
  vcs.clear();
  for (const auto& c : out) vcs.insert(c.vc);
  EXPECT_EQ(vcs, (std::set<Vc>{2, 3}));
}

TEST(Ladder, SaturatesAtTopRung) {
  auto t = make_net(2, 4);
  const RoutingMechanism mech =
      RoutingMechanism::ladder(std::make_unique<MinimalAlgorithm>(), 1, "test");
  Packet p = make_packet(t, t.hx->switch_at({0, 0}), t.hx->switch_at({1, 1}));
  p.hops = 9; // beyond the 4-VC ladder
  std::vector<Candidate> out;
  RouteScratch scratch;
  mech.candidates(t.ctx, p, p.src_switch, scratch, out);
  for (const auto& c : out) EXPECT_EQ(c.vc, 3);
}

TEST(Ladder, CommitIncrementsHops) {
  auto t = make_net(2, 4);
  const RoutingMechanism mech =
      RoutingMechanism::ladder(std::make_unique<MinimalAlgorithm>(), 1, "test");
  Packet p = make_packet(t, 0, 5);
  mech.commit_hop(t.ctx, p, 0, {0, 0, 0, false, false});
  EXPECT_EQ(p.hops, 1);
}

TEST(Ladder, InjectionVcs) {
  auto t = make_net(2, 4);
  const RoutingMechanism one =
      RoutingMechanism::ladder(std::make_unique<MinimalAlgorithm>(), 1, "a");
  EXPECT_EQ(one.injection_vcs(t.ctx).lo, 0);
  EXPECT_EQ(one.injection_vcs(t.ctx).hi, 0);
  const RoutingMechanism two =
      RoutingMechanism::ladder(std::make_unique<MinimalAlgorithm>(), 2, "b");
  EXPECT_EQ(two.injection_vcs(t.ctx).lo, 0);
  EXPECT_EQ(two.injection_vcs(t.ctx).hi, 1);
}

TEST(Factory, AllMechanismsConstructWithPaperNames) {
  const std::vector<std::pair<std::string, std::string>> expect = {
      {"minimal", "Minimal"},   {"dor", "DOR"},
      {"valiant", "Valiant"},   {"omniwar", "OmniWAR"},
      {"polarized", "Polarized"}, {"omnisp", "OmniSP"},
      {"polsp", "PolSP"},
  };
  for (const auto& [name, display] : expect) {
    auto m = make_mechanism(name);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->name(), display);
    EXPECT_EQ(m->needs_escape(), name == "omnisp" || name == "polsp");
  }
  EXPECT_EQ(mechanism_names().size(), 7u);
}

TEST(Factory, PolicySuffixSelectsCRoutDiscipline) {
  // The "@policy" suffix builds SurePath with an overridden CRout VC
  // discipline (the crout-policy ablation sweeps these); display name and
  // escape requirement are unchanged.
  for (const char* name :
       {"omnisp@free", "omnisp@monotone", "omnisp@rung", "omnisp@auto"}) {
    auto m = make_mechanism(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_EQ(m->name(), "OmniSP") << name;
    EXPECT_TRUE(m->needs_escape()) << name;
  }
  auto p = make_mechanism("polsp@free");
  EXPECT_EQ(p->name(), "PolSP");
  EXPECT_TRUE(p->needs_escape());
}

} // namespace
} // namespace hxsp
