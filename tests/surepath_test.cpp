/// \file surepath_test.cpp
/// SurePath mechanism tests (paper §3): CRout/CEsc candidate structure,
/// the no-return rule, forced hops under faults, and end-to-end
/// deliverability of every pair under heavy fault loads.

#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "core/escape_updown.hpp"
#include "routing/omnidimensional.hpp"
#include "routing/polarized.hpp"
#include "test_util.hpp"
#include "topology/faults.hpp"

namespace hxsp {
namespace {

using testutil::make_net;
using testutil::make_packet;
using testutil::TestNet;

// Match the factory's shipped configurations (see routing/factory.cpp).
std::unique_ptr<RoutingMechanism> omnisp() {
  return std::make_unique<RoutingMechanism>(RoutingMechanism::surepath(
      std::make_unique<OmnidimensionalAlgorithm>(), "OmniSP",
      CRoutVcPolicy::Free));
}

std::unique_ptr<RoutingMechanism> polsp() {
  return std::make_unique<RoutingMechanism>(RoutingMechanism::surepath(
      std::make_unique<PolarizedAlgorithm>(), "PolSP", CRoutVcPolicy::Rung));
}

TEST(SurePath, RoutingCandidatesOnAllCRoutVcs) {
  auto t = make_net(2, 4, /*num_vcs=*/4);
  auto mech = omnisp();
  Packet p = make_packet(t, t.hx->switch_at({0, 0}), t.hx->switch_at({2, 0}));
  std::vector<Candidate> out;
  mech->candidates(t.ctx, p, p.src_switch, out);
  std::set<Vc> rout_vcs, esc_vcs;
  for (const auto& c : out)
    for (Vc v = c.vc_lo; v <= c.vc_hi; ++v)
      (c.escape ? esc_vcs : rout_vcs).insert(v);
  // CRout = VCs 0..2, CEsc = VC 3 with 4 VCs.
  EXPECT_EQ(rout_vcs, (std::set<Vc>{0, 1, 2}));
  EXPECT_EQ(esc_vcs, (std::set<Vc>{3}));
}

TEST(SurePath, EscapeCandidatesAlwaysPresent) {
  auto t = make_net(2, 4);
  auto mech = polsp();
  std::vector<Candidate> out;
  for (SwitchId a = 0; a < t.hx->num_switches(); ++a)
    for (SwitchId b = 0; b < t.hx->num_switches(); ++b) {
      if (a == b) continue;
      Packet p = make_packet(t, a, b);
      out.clear();
      mech->candidates(t.ctx, p, a, out);
      bool has_escape = false;
      for (const auto& c : out) has_escape |= c.escape;
      EXPECT_TRUE(has_escape) << a << "->" << b;
    }
}

TEST(SurePath, NoReturnFromEscape) {
  auto t = make_net(2, 4);
  auto mech = omnisp();
  Packet p = make_packet(t, t.hx->switch_at({0, 0}), t.hx->switch_at({2, 2}));
  p.in_escape = true;
  std::vector<Candidate> out;
  mech->candidates(t.ctx, p, p.src_switch, out);
  ASSERT_FALSE(out.empty());
  for (const auto& c : out) {
    EXPECT_TRUE(c.escape);
    EXPECT_EQ(c.vc_lo, t.ctx.num_vcs - 1);
    EXPECT_EQ(c.vc_hi, t.ctx.num_vcs - 1);
  }
}

TEST(SurePath, CommitEntersEscapeAndSetsPhase) {
  auto t = make_net(2, 4);
  auto mech = omnisp();
  Packet p = make_packet(t, 0, 5);
  const Candidate esc{0, 3, 3, 112, true, false};
  mech->commit_hop(t.ctx, p, 0, esc, 3);
  EXPECT_TRUE(p.in_escape);
  EXPECT_FALSE(p.escape_gone_down);
  EXPECT_EQ(p.hops, 1);
  const Candidate down{1, 3, 3, 96, true, true};
  mech->commit_hop(t.ctx, p, 1, down, 3);
  EXPECT_TRUE(p.escape_gone_down);
}

TEST(SurePath, CommitRoutingHopCountsDeroutes) {
  auto t = make_net(2, 4);
  auto mech = omnisp();
  const SwitchId src = t.hx->switch_at({0, 0});
  Packet p = make_packet(t, src, t.hx->switch_at({2, 0}));
  // Deroute to (1,0) on a CRout vc.
  const Port q = t.hx->port_towards(src, 0, 1);
  mech->commit_hop(t.ctx, p, src,
                   {static_cast<std::uint16_t>(q), 0, 0, 64, false, false}, 0);
  EXPECT_EQ(p.deroutes, 1);
  EXPECT_FALSE(p.in_escape);
}

TEST(SurePath, InjectionVcsFollowPolicy) {
  auto t = make_net(2, 4, 4);
  // Free policy (OmniSP default): any CRout VC.
  EXPECT_EQ(omnisp()->injection_vcs(t.ctx).lo, 0);
  EXPECT_EQ(omnisp()->injection_vcs(t.ctx).hi, 2);
  // Rung policy (PolSP default): the first ladder rung only.
  EXPECT_EQ(polsp()->injection_vcs(t.ctx).lo, 0);
  EXPECT_EQ(polsp()->injection_vcs(t.ctx).hi, 0);
}

TEST(SurePath, RungPolicyFollowsHopCount) {
  auto t = make_net(2, 4, 4);
  auto mech = polsp(); // Rung policy
  Packet p = make_packet(t, t.hx->switch_at({0, 0}), t.hx->switch_at({2, 2}));
  p.hops = 1;
  std::vector<Candidate> out;
  mech->candidates(t.ctx, p, t.hx->switch_at({2, 0}), out);
  ASSERT_FALSE(out.empty());
  for (const auto& c : out)
    if (!c.escape) {
      EXPECT_EQ(c.vc_lo, 1);
      EXPECT_EQ(c.vc_hi, 1);
    }
  // Rung saturates at the top CRout VC.
  p.hops = 9;
  out.clear();
  mech->candidates(t.ctx, p, t.hx->switch_at({2, 0}), out);
  for (const auto& c : out)
    if (!c.escape) {
      EXPECT_EQ(c.vc_lo, 2);
      EXPECT_EQ(c.vc_hi, 2);
    }
}

TEST(SurePath, AutoPolicyResolvesByLadderDepth) {
  // Auto = Rung when the CRout VCs can ladder a 2n-1 route, Free below.
  const RoutingMechanism mech = RoutingMechanism::surepath(
      std::make_unique<PolarizedAlgorithm>(), "SP", CRoutVcPolicy::Auto);
  // 2D, 4 VCs: 3 CRout VCs >= 2*2-1 -> Rung.
  auto t2 = make_net(2, 4, /*num_vcs=*/4);
  EXPECT_EQ(mech.resolved_policy(t2.ctx), CRoutVcPolicy::Rung);
  // 3D, 4 VCs: 3 CRout VCs < 2*3-1 -> Free.
  auto t3 = make_net(3, 3, /*num_vcs=*/4);
  EXPECT_EQ(mech.resolved_policy(t3.ctx), CRoutVcPolicy::Free);
  // 3D, 6 VCs: 5 CRout VCs >= 5 -> Rung.
  t3.ctx.num_vcs = 6;
  EXPECT_EQ(mech.resolved_policy(t3.ctx), CRoutVcPolicy::Rung);
  // Non-Auto policies resolve to themselves.
  const RoutingMechanism free_mech = RoutingMechanism::surepath(
      std::make_unique<OmnidimensionalAlgorithm>(), "SP", CRoutVcPolicy::Free);
  EXPECT_EQ(free_mech.resolved_policy(t3.ctx), CRoutVcPolicy::Free);
}

TEST(SurePath, MonotonePolicyRespectsCurrentVc) {
  auto t = make_net(2, 4, 4);
  const RoutingMechanism mech = RoutingMechanism::surepath(
      std::make_unique<OmnidimensionalAlgorithm>(), "SP",
      CRoutVcPolicy::Monotone);
  Packet p = make_packet(t, t.hx->switch_at({0, 0}), t.hx->switch_at({2, 2}));
  p.cur_vc = 1;
  std::vector<Candidate> out;
  mech.candidates(t.ctx, p, p.src_switch, out);
  ASSERT_FALSE(out.empty());
  for (const auto& c : out)
    if (!c.escape) {
      EXPECT_EQ(c.vc_lo, 1);
      EXPECT_EQ(c.vc_hi, 2);
    }
}

TEST(SurePath, ForcedHopWhenBaseRoutingDead) {
  // Kill every unaligned-dimension link at the source so Omnidimensional
  // has no candidate: only escape candidates remain (a forced hop, §3).
  auto t = make_net(2, 4);
  const SwitchId src = t.hx->switch_at({1, 1});
  const SwitchId dst = t.hx->switch_at({1, 3}); // unaligned in dim 1 only
  for (int a = 0; a < 4; ++a) {
    if (a == 1) continue;
    t.hx->graph().fail_link(
        t.hx->graph().port(src, t.hx->port_towards(src, 1, a)).link);
  }
  t.rebuild();
  auto mech = omnisp();
  Packet p = make_packet(t, src, dst);
  std::vector<Candidate> out;
  mech->candidates(t.ctx, p, src, out);
  ASSERT_FALSE(out.empty());
  for (const auto& c : out) EXPECT_TRUE(c.escape);
}

/// Greedy SurePath walk mimicking the router: prefers the lowest penalty
/// (on the entry's lowest VC), updating escape state through commit_hop.
int surepath_walk(const TestNet& t, RoutingMechanism& mech, SwitchId src,
                  SwitchId dst, int max_hops) {
  Packet p = testutil::make_packet(t, src, dst);
  Rng rng(17);
  mech.on_inject(t.ctx, p, rng);
  SwitchId c = src;
  mech.on_arrival(t.ctx, p, c);
  std::vector<Candidate> out;
  int hops = 0;
  while (c != dst) {
    if (hops > max_hops) return -1;
    out.clear();
    mech.candidates(t.ctx, p, c, out);
    if (out.empty()) return -1;
    const Candidate* best = &out.front();
    for (const auto& cc : out)
      if (cc.penalty < best->penalty) best = &cc;
    mech.commit_hop(t.ctx, p, c, *best, best->vc_lo);
    c = t.ctx.graph->port(c, best->port).neighbor;
    mech.on_arrival(t.ctx, p, c);
    ++hops;
  }
  return hops;
}

TEST(SurePath, AllPairsDeliverableFaultFree) {
  auto t = make_net(2, 4);
  auto mo = omnisp();
  auto mp = polsp();
  for (SwitchId a = 0; a < t.hx->num_switches(); ++a)
    for (SwitchId b = 0; b < t.hx->num_switches(); ++b) {
      if (a == b) continue;
      EXPECT_GE(surepath_walk(t, *mo, a, b, 16), 0);
      EXPECT_GE(surepath_walk(t, *mp, a, b, 16), 0);
    }
}

/// Property sweep: SurePath delivers every pair under growing random fault
/// loads (the paper's central fault-tolerance claim).
struct SpSweep {
  int seed;
  int faults;
  bool strict;
  const char* base; // "omni" or "pol"
};

// Without this gtest prints the raw bytes, which include the base string's
// address and so change from run to run, and ctest names each case after
// the printed value.
void PrintTo(const SpSweep& p, std::ostream* os) {
  *os << p.base << "_seed" << p.seed << "_faults" << p.faults
      << (p.strict ? "_strict" : "_relaxed");
}

class SurePathFaultSweep : public ::testing::TestWithParam<SpSweep> {};

TEST_P(SurePathFaultSweep, AllPairsDeliverableUnderFaults) {
  const auto param = GetParam();
  auto t = make_net(2, 5);
  Rng rng(static_cast<std::uint64_t>(param.seed));
  apply_faults(t.hx->graph(), random_fault_links(t.hx->graph(), param.faults,
                                                 rng, /*keep_connected=*/true));
  const SwitchId root = static_cast<SwitchId>(
      rng.next_below(static_cast<std::uint64_t>(t.hx->num_switches())));
  t.rebuild(root, param.strict);
  std::unique_ptr<RoutingMechanism> mech =
      std::string(param.base) == "omni" ? omnisp() : polsp();
  const int bound = 4 * t.hx->num_switches();
  for (SwitchId a = 0; a < t.hx->num_switches(); ++a)
    for (SwitchId b = 0; b < t.hx->num_switches(); ++b)
      if (a != b) {
        EXPECT_GE(surepath_walk(t, *mech, a, b, bound), 0)
            << param.base << " " << a << "->" << b;
      }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsModesBases, SurePathFaultSweep,
    ::testing::Values(SpSweep{1, 25, false, "omni"}, SpSweep{2, 25, false, "pol"},
                      SpSweep{3, 40, false, "omni"}, SpSweep{4, 40, false, "pol"},
                      SpSweep{5, 40, true, "omni"}, SpSweep{6, 40, true, "pol"},
                      SpSweep{7, 55, false, "pol"}, SpSweep{8, 55, true, "omni"}));

TEST(SurePath, WalkSurvivesRowFaultWithRootInside) {
  auto t = make_net(2, 4);
  const ShapeFault sf = row_fault(*t.hx, 0, {0, 2});
  apply_faults(t.hx->graph(), sf.links);
  t.rebuild(sf.suggested_root);
  auto mech = polsp();
  for (SwitchId a = 0; a < t.hx->num_switches(); ++a)
    for (SwitchId b = 0; b < t.hx->num_switches(); ++b)
      if (a != b) { EXPECT_GE(surepath_walk(t, *mech, a, b, 64), 0); }
}

TEST(SurePath, RequiresEscapeInContext) {
  auto t = make_net(2, 4);
  t.ctx.escape = nullptr;
  auto mech = omnisp();
  Packet p = make_packet(t, 0, 5);
  std::vector<Candidate> out;
  EXPECT_DEATH(mech->candidates(t.ctx, p, 0, out), "escape");
}

} // namespace
} // namespace hxsp
