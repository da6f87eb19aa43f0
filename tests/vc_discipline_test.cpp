/// \file vc_discipline_test.cpp
/// Table-driven check of every mechanism's VC discipline (paper Table 4 and
/// §3): for each factory name and "@policy" variant, at 2..6 VCs and 0..8
/// hops taken, the routing and injection VCs equal the rule written out
/// below, SurePath's routing candidates stay off the escape VC, and a hop
/// records the VC it was granted.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "routing/factory.hpp"
#include "test_util.hpp"

namespace hxsp {
namespace {

using testutil::make_net;
using testutil::make_packet;

/// The discipline a factory name stands for.
struct Discipline {
  int rung = 1;        ///< ladder rung width (VCs per step)
  bool escape = false; ///< SurePath: last VC reserved for the escape
  CRoutVcPolicy policy = CRoutVcPolicy::Rung;
};

Discipline discipline_of(const std::string& name) {
  const std::size_t at = name.find('@');
  const std::string base = name.substr(0, at);
  if (base == "minimal") return {2, false, CRoutVcPolicy::Rung};
  if (base == "dor" || base == "valiant" || base == "omniwar" ||
      base == "polarized")
    return {1, false, CRoutVcPolicy::Rung};
  Discipline d{1, true, base == "polsp" ? CRoutVcPolicy::Auto
                                        : CRoutVcPolicy::Free};
  if (at != std::string::npos) {
    const std::string suffix = name.substr(at + 1);
    if (suffix == "free") d.policy = CRoutVcPolicy::Free;
    if (suffix == "monotone") d.policy = CRoutVcPolicy::Monotone;
    if (suffix == "rung") d.policy = CRoutVcPolicy::Rung;
    if (suffix == "auto") d.policy = CRoutVcPolicy::Auto;
  }
  return d;
}

/// Routing VCs [lo, hi] under \p d with \p vcs VCs, for a packet that has
/// taken \p hops hops and occupies \p cur_vc, on a \p dims-dim HyperX.
VcRange expected_vcs(const Discipline& d, int vcs, int dims, int hops,
                     Vc cur_vc) {
  const int routing = d.escape ? vcs - 1 : vcs; // CRout, or every VC
  const Vc top = routing - 1;
  CRoutVcPolicy policy = d.policy;
  if (policy == CRoutVcPolicy::Auto) // Rung iff CRout ladders 2n-1 hops
    policy = routing >= 2 * dims - 1 ? CRoutVcPolicy::Rung : CRoutVcPolicy::Free;
  if (policy == CRoutVcPolicy::Free) return {0, top};
  if (policy == CRoutVcPolicy::Monotone) return {std::min(cur_vc, top), top};
  const Vc lo = std::min(hops * d.rung, routing - d.rung);
  return {lo, lo + d.rung - 1};
}

std::vector<std::string> all_names() {
  std::vector<std::string> names = mechanism_names();
  names.push_back("escape");
  for (const char* base : {"omnisp", "polsp"})
    for (const char* policy : {"free", "monotone", "rung", "auto"})
      names.push_back(std::string(base) + "@" + policy);
  return names;
}

TEST(VcDiscipline, EveryMechanismFollowsTable4) {
  constexpr int kDims = 2;
  for (const std::string& name : all_names()) {
    const Discipline d = discipline_of(name);
    const std::unique_ptr<RoutingMechanism> mech = make_mechanism(name);
    ASSERT_EQ(mech->needs_escape(), d.escape) << name;
    for (int vcs = 2; vcs <= 6; ++vcs) {
      auto t = make_net(kDims, 4, vcs);
      const SwitchId src = t.hx->switch_at({0, 0});
      const SwitchId dst = t.hx->switch_at({2, 3});

      const VcRange inj = mech->injection_vcs(t.ctx);
      const VcRange want_inj = expected_vcs(d, vcs, kDims, 0, 0);
      EXPECT_EQ(inj.lo, want_inj.lo) << name << " vcs=" << vcs;
      EXPECT_EQ(inj.hi, want_inj.hi) << name << " vcs=" << vcs;

      const Vc routing_vcs = d.escape ? vcs - 1 : vcs;
      for (int hops = 0; hops <= 8; ++hops) {
        for (Vc cur = 0; cur < routing_vcs; ++cur) {
          const std::string where = name + " vcs=" + std::to_string(vcs) +
                                    " hops=" + std::to_string(hops) +
                                    " cur_vc=" + std::to_string(cur);
          Packet p = make_packet(t, src, dst);
          Rng rng(7);
          mech->on_inject(t.ctx, p, rng);
          mech->on_arrival(t.ctx, p, src);
          p.hops = static_cast<std::uint16_t>(hops);
          p.cur_vc = cur;
          std::vector<Candidate> out;
          RouteScratch scratch;
          mech->candidates(t.ctx, p, src, scratch, out);

          // Routing candidates first, in blocks of one port each covering
          // the expected VCs in ascending order; escape candidates after.
          const VcRange want = expected_vcs(d, vcs, kDims, hops, cur);
          const int width = want.hi - want.lo + 1;
          std::size_t routing = 0;
          while (routing < out.size() && !out[routing].escape) ++routing;
          if (name != "escape") { EXPECT_GT(routing, 0u) << where; }
          ASSERT_EQ(routing % static_cast<std::size_t>(width), 0u) << where;
          for (std::size_t k = 0; k < routing; ++k) {
            const std::size_t block = k - k % static_cast<std::size_t>(width);
            EXPECT_EQ(out[k].port, out[block].port) << where;
            EXPECT_EQ(out[k].vc, want.lo + static_cast<Vc>(k - block)) << where;
            if (d.escape) { EXPECT_LT(out[k].vc, vcs - 1) << where; }
          }
          for (std::size_t k = routing; k < out.size(); ++k) {
            EXPECT_TRUE(out[k].escape) << where;
            EXPECT_EQ(out[k].vc, vcs - 1) << where;
          }
          if (!d.escape) { EXPECT_EQ(routing, out.size()) << where; }

          // A granted hop records its VC and counts the hop.
          if (routing > 0) {
            const Candidate& c = out[routing - 1];
            mech->commit_hop(t.ctx, p, src, c);
            EXPECT_EQ(p.cur_vc, c.vc) << where;
            EXPECT_EQ(p.hops, hops + 1) << where;
          }
        }
      }
    }
  }
}

} // namespace
} // namespace hxsp
