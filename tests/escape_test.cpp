/// \file escape_test.cpp
/// Tests of the opportunistic Up/Down escape subnetwork (paper §3.2):
/// link colouring, Up/Down distance identities, candidate legality,
/// liveness (a strictly-improving candidate always exists) across random
/// topologies and fault sets, in both memoryless and strict-phase modes.

#include <gtest/gtest.h>

#include <ostream>

#include "core/escape_updown.hpp"
#include "test_util.hpp"
#include "topology/builders.hpp"
#include "topology/faults.hpp"

namespace hxsp {
namespace {

using testutil::make_net;
using testutil::TestNet;

TEST(Escape, LevelsAreBfsDistancesToRoot) {
  auto t = make_net(2, 4);
  const auto d = t.hx->graph().bfs(0);
  for (SwitchId s = 0; s < t.hx->num_switches(); ++s)
    EXPECT_EQ(t.escape->level(s), d[static_cast<std::size_t>(s)]);
}

TEST(Escape, BlackRedCountsOn4x4HyperX) {
  // Root (0,0) in a 4x4 HyperX: 6 black to level 1, 18 black between
  // levels 1 and 2; 6 red inside level 1, 18 red inside level 2.
  auto t = make_net(2, 4);
  EXPECT_EQ(t.escape->num_black_links(), 24);
  EXPECT_EQ(t.escape->num_red_links(), 24);
  EXPECT_EQ(t.escape->num_black_links() + t.escape->num_red_links(),
            t.hx->graph().num_links());
}

TEST(Escape, BlackLinksSpanAdjacentLevels) {
  auto t = make_net(3, 3);
  const Graph& g = t.hx->graph();
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const auto& e = g.link(l);
    const int la = t.escape->level(e.a);
    const int lb = t.escape->level(e.b);
    if (t.escape->is_black(l))
      EXPECT_EQ(std::abs(la - lb), 1);
    else
      EXPECT_EQ(la, lb);
  }
}

TEST(Escape, UpDistanceBasics) {
  auto t = make_net(2, 4);
  for (SwitchId s = 0; s < t.hx->num_switches(); ++s) {
    EXPECT_EQ(t.escape->up_distance(s, s), 0);
    // Every switch can ascend to the root in level(s) steps.
    EXPECT_EQ(t.escape->up_distance(s, 0), t.escape->level(s));
  }
}

TEST(Escape, UpDownDistanceIdentities) {
  auto t = make_net(2, 4);
  const SwitchId n = t.hx->num_switches();
  for (SwitchId a = 0; a < n; ++a) {
    EXPECT_EQ(t.escape->updown_distance(a, a), 0);
    EXPECT_EQ(t.escape->updown_distance(a, 0), t.escape->level(a));
    for (SwitchId b = 0; b < n; ++b) {
      const int ud = t.escape->updown_distance(a, b);
      // Symmetric.
      EXPECT_EQ(ud, t.escape->updown_distance(b, a));
      // At least the graph distance; at most via the root.
      EXPECT_GE(ud, t.dist->at(a, b));
      EXPECT_LE(ud, t.escape->level(a) + t.escape->level(b));
    }
  }
}

TEST(Escape, PaperExampleUpDownPaths) {
  // Figure 2 discussion: in a 4x4 HyperX rooted at (0,0), switches (1,0)
  // and (2,0) are at Up/Down distance 2 (1 up + 1 down).
  auto t = make_net(2, 4);
  const SwitchId a = t.hx->switch_at({1, 0});
  const SwitchId b = t.hx->switch_at({2, 0});
  EXPECT_EQ(t.escape->updown_distance(a, b), 2);
}

TEST(Escape, CandidatePenaltiesMatchPaper) {
  auto t = make_net(2, 4);
  // From (1,1) to (1,3): the red row link reduces udist(=2) to 0, so it is
  // a shortcut with reduction 2 -> penalty 64; black up links to (0,1) and
  // (1,0) reduce udist by 1 -> penalty 112.
  const SwitchId c = t.hx->switch_at({1, 1});
  const SwitchId dst = t.hx->switch_at({1, 3});
  std::vector<Candidate> cand;
  t.escape->candidates(c, dst, false, cand);
  ASSERT_FALSE(cand.empty());
  bool saw_red2 = false, saw_up = false;
  for (const auto& ec : cand) {
    const SwitchId nbr = t.hx->graph().port(c, ec.port).neighbor;
    if (nbr == dst) {
      EXPECT_EQ(ec.penalty, 64);
      saw_red2 = true;
    }
    if (t.escape->level(nbr) == 1 && ec.penalty == 112) saw_up = true;
  }
  EXPECT_TRUE(saw_red2);
  EXPECT_TRUE(saw_up);
}

TEST(Escape, EveryCandidateStrictlyReducesUpDownDistance) {
  auto t = make_net(3, 3);
  std::vector<Candidate> cand;
  for (SwitchId c = 0; c < t.hx->num_switches(); ++c) {
    for (SwitchId dst = 0; dst < t.hx->num_switches(); ++dst) {
      if (c == dst) continue;
      cand.clear();
      t.escape->candidates(c, dst, false, cand);
      for (const auto& ec : cand) {
        const SwitchId nbr = t.hx->graph().port(c, ec.port).neighbor;
        EXPECT_LT(t.escape->updown_distance(nbr, dst),
                  t.escape->updown_distance(c, dst));
      }
    }
  }
}

TEST(Escape, NoShortcutsModeUsesOnlyBlackLinks) {
  auto t = make_net(2, 4);
  t.rebuild(/*root=*/0, /*strict=*/false, /*shortcuts=*/false);
  std::vector<Candidate> cand;
  for (SwitchId c = 0; c < t.hx->num_switches(); ++c) {
    for (SwitchId dst = 0; dst < t.hx->num_switches(); ++dst) {
      if (c == dst) continue;
      cand.clear();
      t.escape->candidates(c, dst, false, cand);
      EXPECT_FALSE(cand.empty());
      for (const auto& ec : cand)
        EXPECT_TRUE(t.escape->is_black(t.hx->graph().port(c, ec.port).link));
    }
  }
}

/// Walks the escape greedily (min penalty) from src to dst, returning hops
/// or -1 on failure; maintains the strict-phase bit like the router does.
int escape_walk(const TestNet& t, SwitchId src, SwitchId dst, int max_hops) {
  SwitchId c = src;
  bool gone_down = false;
  std::vector<Candidate> cand;
  int hops = 0;
  while (c != dst) {
    if (hops > max_hops) return -1;
    cand.clear();
    t.escape->candidates(c, dst, gone_down, cand);
    if (cand.empty()) return -1;
    const Candidate* best = &cand.front();
    for (const auto& ec : cand)
      if (ec.penalty < best->penalty) best = &ec;
    if (best->escape_down) gone_down = true;
    c = t.hx->graph().port(c, best->port).neighbor;
    ++hops;
  }
  return hops;
}

TEST(Escape, LivenessAllPairsFaultFree) {
  auto t = make_net(2, 4);
  const int bound = 2 * 3; // level sums bound udist
  for (SwitchId a = 0; a < t.hx->num_switches(); ++a)
    for (SwitchId b = 0; b < t.hx->num_switches(); ++b)
      if (a != b) { EXPECT_GE(escape_walk(t, a, b, bound + 1), 0); }
}

TEST(Escape, WalkLengthBoundedByUpDownDistance) {
  auto t = make_net(3, 3);
  for (SwitchId a = 0; a < t.hx->num_switches(); ++a)
    for (SwitchId b = 0; b < t.hx->num_switches(); ++b) {
      if (a == b) continue;
      const int hops = escape_walk(t, a, b, 64);
      ASSERT_GE(hops, 0);
      EXPECT_LE(hops, t.escape->updown_distance(a, b));
    }
}

/// Property sweep: liveness under random faults for both escape modes and
/// several seeds/roots (the heart of SurePath's fault-tolerance claim).
struct EscapeSweepParam {
  int seed;
  int faults;
  bool strict;
};

// Without this gtest prints the raw bytes, padding after `strict`
// included, and ctest names each case after the printed value.
void PrintTo(const EscapeSweepParam& p, std::ostream* os) {
  *os << "seed" << p.seed << "_faults" << p.faults
      << (p.strict ? "_strict" : "_memoryless");
}

class EscapeLivenessSweep : public ::testing::TestWithParam<EscapeSweepParam> {};

TEST_P(EscapeLivenessSweep, AllPairsDeliverableUnderFaults) {
  const auto param = GetParam();
  auto t = make_net(2, 5);
  Rng rng(static_cast<std::uint64_t>(param.seed));
  const auto faults =
      random_fault_links(t.hx->graph(), param.faults, rng, /*keep_connected=*/true);
  apply_faults(t.hx->graph(), faults);
  const SwitchId root =
      static_cast<SwitchId>(rng.next_below(
          static_cast<std::uint64_t>(t.hx->num_switches())));
  t.rebuild(root, param.strict);
  for (SwitchId a = 0; a < t.hx->num_switches(); ++a)
    for (SwitchId b = 0; b < t.hx->num_switches(); ++b)
      if (a != b) {
        EXPECT_GE(escape_walk(t, a, b, 2 * t.hx->num_switches()), 0)
            << "pair " << a << "->" << b << " seed " << param.seed;
      }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModes, EscapeLivenessSweep,
    ::testing::Values(EscapeSweepParam{1, 20, false}, EscapeSweepParam{2, 20, false},
                      EscapeSweepParam{3, 35, false}, EscapeSweepParam{4, 35, true},
                      EscapeSweepParam{5, 20, true}, EscapeSweepParam{6, 50, false},
                      EscapeSweepParam{7, 50, true}, EscapeSweepParam{8, 10, false}));

TEST(Escape, WorksOnGenericTopologies) {
  // SurePath's escape is defined without HyperX knowledge (paper §7):
  // verify liveness on a random regular graph and a torus.
  Rng rng(13);
  Graph g = make_random_regular(24, 4, rng);
  EscapeUpDown::Config cfg;
  cfg.root = 5;
  EscapeUpDown esc(g, cfg);
  std::vector<Candidate> cand;
  for (SwitchId a = 0; a < g.num_switches(); ++a) {
    for (SwitchId b = 0; b < g.num_switches(); ++b) {
      if (a == b) continue;
      SwitchId c = a;
      int hops = 0;
      while (c != b && hops <= 64) {
        cand.clear();
        esc.candidates(c, b, false, cand);
        ASSERT_FALSE(cand.empty());
        const Candidate* best = &cand.front();
        for (const auto& ec : cand)
          if (ec.penalty < best->penalty) best = &ec;
        c = g.port(c, best->port).neighbor;
        ++hops;
      }
      EXPECT_EQ(c, b);
    }
  }
}

TEST(Escape, StarFaultRootNearlyDisconnected) {
  // The paper's §6 extreme case: root inside a Star fault with 3 alive
  // links must still provide full escape liveness.
  auto t = make_net(3, 4);
  const SwitchId center = t.hx->switch_at({2, 2, 2});
  const ShapeFault sf = star_fault(*t.hx, center, 3);
  apply_faults(t.hx->graph(), sf.links);
  t.rebuild(center);
  EXPECT_EQ(t.hx->graph().alive_degree(center), 3);
  for (SwitchId b = 0; b < t.hx->num_switches(); ++b)
    if (b != center) {
      EXPECT_GE(escape_walk(t, center, b, 64), 0);
      EXPECT_GE(escape_walk(t, b, center, 64), 0);
    }
}

TEST(Escape, RequiresConnectedGraph) {
  Graph g(4, {{0, 1}, {2, 3}});
  EscapeUpDown::Config cfg;
  EXPECT_DEATH(EscapeUpDown(g, cfg), "connected");
}

} // namespace
} // namespace hxsp
