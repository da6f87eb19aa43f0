/// \file escape_brute_test.cpp
/// Brute-force cross-validation of the escape subnetwork's distance
/// machinery: the up-digraph distances and Up/Down distances computed by
/// EscapeUpDown are compared against independent exhaustive searches on
/// small graphs, fault-free and faulty.

#include <gtest/gtest.h>

#include <deque>
#include <limits>

#include "core/escape_updown.hpp"
#include "test_util.hpp"
#include "topology/builders.hpp"
#include "topology/faults.hpp"

namespace hxsp {
namespace {

/// Independent BFS over "up" moves (towards strictly lower level).
std::vector<int> brute_up_distances(const Graph& g, const std::vector<int>& level,
                                    SwitchId from) {
  std::vector<int> d(static_cast<std::size_t>(g.num_switches()),
                     std::numeric_limits<int>::max());
  std::deque<SwitchId> q{from};
  d[static_cast<std::size_t>(from)] = 0;
  while (!q.empty()) {
    const SwitchId c = q.front();
    q.pop_front();
    for (const auto& pi : g.ports(c)) {
      if (!g.link_alive(pi.link)) continue;
      if (level[static_cast<std::size_t>(pi.neighbor)] !=
          level[static_cast<std::size_t>(c)] - 1)
        continue;
      auto& dn = d[static_cast<std::size_t>(pi.neighbor)];
      if (dn == std::numeric_limits<int>::max()) {
        dn = d[static_cast<std::size_t>(c)] + 1;
        q.push_back(pi.neighbor);
      }
    }
  }
  return d;
}

/// Brute-force Up/Down distance: min over meet switches of up+up.
int brute_updown(const Graph& g, const std::vector<int>& level, SwitchId a,
                 SwitchId b) {
  const auto ua = brute_up_distances(g, level, a);
  const auto ub = brute_up_distances(g, level, b);
  int best = std::numeric_limits<int>::max();
  for (SwitchId z = 0; z < g.num_switches(); ++z) {
    const auto za = ua[static_cast<std::size_t>(z)];
    const auto zb = ub[static_cast<std::size_t>(z)];
    if (za == std::numeric_limits<int>::max() ||
        zb == std::numeric_limits<int>::max())
      continue;
    best = std::min(best, za + zb);
  }
  return best;
}

void cross_validate(const Graph& g, SwitchId root) {
  EscapeUpDown esc(g, {.root = root, .strict_phase = false, .penalties = {},
                       .use_shortcuts = true});
  std::vector<int> level(static_cast<std::size_t>(g.num_switches()));
  const auto bfs = g.bfs(root);
  for (SwitchId s = 0; s < g.num_switches(); ++s)
    level[static_cast<std::size_t>(s)] = bfs[static_cast<std::size_t>(s)];

  for (SwitchId a = 0; a < g.num_switches(); ++a) {
    const auto brute_up = brute_up_distances(g, level, a);
    for (SwitchId b = 0; b < g.num_switches(); ++b) {
      const int expect_up = brute_up[static_cast<std::size_t>(b)];
      if (expect_up == std::numeric_limits<int>::max())
        EXPECT_EQ(esc.up_distance(a, b), kUnreachable);
      else
        EXPECT_EQ(esc.up_distance(a, b), expect_up);
      EXPECT_EQ(esc.updown_distance(a, b), brute_updown(g, level, a, b))
          << "pair " << a << "," << b;
    }
  }
}

TEST(EscapeBrute, HyperX3x3) {
  const HyperX hx({3, 3}, 1);
  cross_validate(hx.graph(), 0);
}

TEST(EscapeBrute, HyperX3x3OffCenterRoot) {
  const HyperX hx({3, 3}, 1);
  cross_validate(hx.graph(), 4);
}

TEST(EscapeBrute, Torus4x4) {
  cross_validate(make_torus(4, 4), 5);
}

TEST(EscapeBrute, RandomRegularWithFaults) {
  Rng rng(23);
  Graph g = make_random_regular(18, 4, rng);
  apply_faults(g, random_fault_links(g, 6, rng, /*keep_connected=*/true));
  cross_validate(g, 3);
}

TEST(EscapeBrute, MeshIsAllBlack) {
  // A mesh rooted at a corner has no two adjacent switches at the same
  // level in one dimension... actually meshes do have same-level links
  // (anti-diagonals). Verify the classifier against levels directly.
  Graph g = make_mesh(3, 3);
  EscapeUpDown esc(g, {.root = 0, .strict_phase = false, .penalties = {},
                       .use_shortcuts = true});
  const auto bfs = g.bfs(0);
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const auto& e = g.link(l);
    EXPECT_EQ(esc.is_black(l), bfs[static_cast<std::size_t>(e.a)] !=
                                   bfs[static_cast<std::size_t>(e.b)]);
  }
}

TEST(EscapeBrute, CompleteGraphOneLevelDeep) {
  // K_n rooted anywhere: every non-root is level 1; root links black, all
  // other links red; udist(a,b) = 2 for distinct non-root a,b via root.
  Graph g = make_complete(6);
  EscapeUpDown esc(g, {.root = 2, .strict_phase = false, .penalties = {},
                       .use_shortcuts = true});
  EXPECT_EQ(esc.num_black_links(), 5);
  EXPECT_EQ(esc.num_red_links(), 10);
  for (SwitchId a = 0; a < 6; ++a)
    for (SwitchId b = 0; b < 6; ++b) {
      if (a == b) continue;
      if (a == 2 || b == 2)
        EXPECT_EQ(esc.updown_distance(a, b), 1);
      else
        EXPECT_EQ(esc.updown_distance(a, b), 2);
    }
}

TEST(EscapeBrute, PenaltyConfigRespected) {
  const HyperX hx({4, 4}, 1);
  EscapePenalties pen{11, 7, 5, 3, 2};
  EscapeUpDown esc(hx.graph(), {.root = 0, .strict_phase = false,
                                .penalties = pen, .use_shortcuts = true});
  std::vector<Candidate> cand;
  bool saw_up = false, saw_down = false, saw_red = false;
  for (SwitchId c = 0; c < hx.num_switches(); ++c)
    for (SwitchId t = 0; t < hx.num_switches(); ++t) {
      if (c == t) continue;
      cand.clear();
      esc.candidates(c, t, false, cand);
      for (const auto& ec : cand) {
        const SwitchId nbr = hx.graph().port(c, ec.port).neighbor;
        if (esc.level(nbr) < esc.level(c)) {
          EXPECT_EQ(ec.penalty, 11);
          saw_up = true;
        } else if (esc.level(nbr) > esc.level(c)) {
          EXPECT_EQ(ec.penalty, 7);
          saw_down = true;
        } else {
          EXPECT_TRUE(ec.penalty == 5 || ec.penalty == 3 || ec.penalty == 2);
          saw_red = true;
        }
      }
    }
  EXPECT_TRUE(saw_up);
  EXPECT_TRUE(saw_down);
  EXPECT_TRUE(saw_red);
}

TEST(EscapeBrute, RootChangesLevels) {
  const HyperX hx({4, 4}, 1);
  EscapeUpDown a(hx.graph(), {.root = 0, .strict_phase = false,
                              .penalties = {}, .use_shortcuts = true});
  const SwitchId far_corner = hx.switch_at({3, 3});
  EscapeUpDown b(hx.graph(), {.root = far_corner, .strict_phase = false,
                              .penalties = {}, .use_shortcuts = true});
  EXPECT_EQ(a.level(0), 0);
  EXPECT_EQ(b.level(far_corner), 0);
  EXPECT_EQ(a.level(far_corner), 2);
  EXPECT_EQ(b.level(0), 2);
}

} // namespace
} // namespace hxsp
