/// \file graph_test.cpp
/// Unit tests for the graph substrate: construction, port mapping, faults,
/// BFS, connectivity, builders and the all-pairs distance table.

#include <gtest/gtest.h>

#include <vector>

#include "topology/builders.hpp"
#include "topology/distance.hpp"
#include "topology/faults.hpp"
#include "topology/graph.hpp"
#include "topology/hyperx.hpp"
#include "util/rng.hpp"

namespace hxsp {
namespace {

TEST(Graph, EdgeOrderAssignsPortsAndLinkIds) {
  const Graph g(3, {{0, 1}, {0, 2}});
  EXPECT_EQ(g.link(0).b, 1);
  EXPECT_EQ(g.link(1).b, 2);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_EQ(g.port(0, 0).neighbor, 1);
  EXPECT_EQ(g.port(0, 1).neighbor, 2);
  EXPECT_EQ(g.port(1, 0).neighbor, 0);
  EXPECT_EQ(g.port(1, 0).remote_port, 0);
  EXPECT_EQ(g.port(0, 1).remote_port, 0);
}

TEST(Graph, LinkEndsConsistentWithPorts) {
  const Graph g(4, {{2, 3}});
  const auto& e = g.link(0);
  EXPECT_EQ(e.a, 2);
  EXPECT_EQ(e.b, 3);
  EXPECT_EQ(g.port(e.a, e.port_a).neighbor, e.b);
  EXPECT_EQ(g.port(e.b, e.port_b).neighbor, e.a);
}

TEST(Graph, FailAndRestoreLink) {
  Graph g(2, {{0, 1}});
  const LinkId l = 0;
  EXPECT_TRUE(g.link_alive(l));
  EXPECT_EQ(g.num_alive_links(), 1);
  g.fail_link(l);
  EXPECT_FALSE(g.link_alive(l));
  EXPECT_FALSE(g.port_alive(0, 0));
  EXPECT_EQ(g.num_alive_links(), 0);
  g.fail_link(l); // idempotent
  EXPECT_EQ(g.num_alive_links(), 0);
  g.restore_link(l);
  EXPECT_TRUE(g.link_alive(l));
  EXPECT_EQ(g.num_alive_links(), 1);
}

TEST(Graph, RestoreAll) {
  Graph g = make_complete(5);
  for (LinkId l = 0; l < g.num_links(); ++l) g.fail_link(l);
  EXPECT_EQ(g.num_alive_links(), 0);
  g.restore_all();
  EXPECT_EQ(g.num_alive_links(), g.num_links());
}

TEST(Graph, AliveDegree) {
  Graph g = make_complete(4);
  EXPECT_EQ(g.alive_degree(0), 3);
  g.fail_link(g.port(0, 0).link);
  EXPECT_EQ(g.alive_degree(0), 2);
}

TEST(Graph, BfsDistancesOnPath) {
  // 0 - 1 - 2 - 3 path
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto d = g.bfs(0);
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[2], 2);
  EXPECT_EQ(d[3], 3);
}

TEST(Graph, BfsUnreachableAfterCut) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  g.fail_link(1); // cut 1-2
  const auto d = g.bfs(0);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[2], kUnreachable);
  EXPECT_EQ(d[3], kUnreachable);
}

TEST(Graph, ConnectivityAndComponents) {
  // Link 3 joins the two components; it starts failed.
  Graph g(5, {{0, 1}, {1, 2}, {3, 4}, {2, 3}});
  g.fail_link(3);
  EXPECT_FALSE(g.connected());
  EXPECT_EQ(g.num_components(), 2);
  g.restore_link(3);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.num_components(), 1);
}

/// The alive view must equal the port table filtered by link_alive, in
/// ascending port order, with matching alive degrees and link count.
void expect_alive_view(const Graph& g) {
  LinkId live = 0;
  for (LinkId l = 0; l < g.num_links(); ++l) live += g.link_alive(l) ? 1 : 0;
  ASSERT_EQ(g.num_alive_links(), live);
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    std::vector<AlivePort> want;
    for (Port p = 0; p < g.degree(s); ++p) {
      const PortInfo& pi = g.port(s, p);
      if (g.link_alive(pi.link)) want.push_back({p, pi.neighbor, pi.link});
    }
    const auto& got = g.alive_ports(s);
    ASSERT_EQ(got.size(), want.size()) << "switch " << s;
    ASSERT_EQ(g.alive_degree(s), static_cast<Port>(want.size())) << "switch " << s;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].port, want[i].port) << "switch " << s;
      ASSERT_EQ(got[i].neighbor, want[i].neighbor) << "switch " << s;
      ASSERT_EQ(got[i].link, want[i].link) << "switch " << s;
    }
  }
}

/// A seeded random sequence of fail/restore calls (repeats included, so
/// both idempotent paths run), checking the alive view after every step.
void churn(Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  expect_alive_view(g);
  for (int step = 0; step < 300; ++step) {
    const auto l = static_cast<LinkId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_links())));
    if (rng.next_bool(0.6))
      g.fail_link(l);
    else
      g.restore_link(l);
    SCOPED_TRACE(step);
    expect_alive_view(g);
  }
  g.restore_all();
  expect_alive_view(g);
  EXPECT_EQ(g.num_alive_links(), g.num_links());
}

TEST(Graph, AliveViewUnderChurnOnFaultedHyperX) {
  HyperX hx({4, 4, 4}, 1);
  Rng frng(21);
  apply_faults(hx.graph(), random_fault_links(hx.graph(), 20, frng));
  churn(hx.graph(), 0xC0FFEE);
}

TEST(Graph, AliveViewUnderChurnOnDragonfly) {
  Graph g = make_dragonfly(4, 2);
  churn(g, 0xBEEF);
}

TEST(Builders, CompleteGraph) {
  const Graph g = make_complete(6);
  EXPECT_EQ(g.num_links(), 15);
  for (SwitchId s = 0; s < 6; ++s) EXPECT_EQ(g.degree(s), 5);
  EXPECT_TRUE(g.connected());
}

TEST(Builders, Mesh) {
  const Graph g = make_mesh(3, 4);
  EXPECT_EQ(g.num_switches(), 12);
  // 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8 = 17.
  EXPECT_EQ(g.num_links(), 17);
  EXPECT_TRUE(g.connected());
  const DistanceTable d(g);
  EXPECT_EQ(d.diameter(), 3 - 1 + 4 - 1);
}

TEST(Builders, Torus) {
  const Graph g = make_torus(4, 4);
  EXPECT_EQ(g.num_switches(), 16);
  EXPECT_EQ(g.num_links(), 32);
  for (SwitchId s = 0; s < 16; ++s) EXPECT_EQ(g.degree(s), 4);
  const DistanceTable d(g);
  EXPECT_EQ(d.diameter(), 4); // 2 + 2
}

TEST(Builders, RandomRegularIsRegularAndConnected) {
  Rng rng(3);
  const Graph g = make_random_regular(20, 4, rng);
  EXPECT_EQ(g.num_links(), 40);
  for (SwitchId s = 0; s < 20; ++s) EXPECT_EQ(g.degree(s), 4);
  EXPECT_TRUE(g.connected());
}

TEST(Distance, MatchesBfsPerRow) {
  Rng rng(5);
  Graph g = make_random_regular(24, 3, rng);
  g.fail_link(0);
  const DistanceTable t(g);
  for (SwitchId s = 0; s < g.num_switches(); s += 5) {
    const auto row = g.bfs(s);
    for (SwitchId u = 0; u < g.num_switches(); ++u)
      EXPECT_EQ(t.at(s, u), row[static_cast<std::size_t>(u)]);
  }
}

TEST(Distance, SymmetricOnUndirectedGraph) {
  Rng rng(7);
  const Graph g = make_random_regular(16, 3, rng);
  const DistanceTable t(g);
  for (SwitchId a = 0; a < 16; ++a)
    for (SwitchId b = 0; b < 16; ++b) EXPECT_EQ(t.at(a, b), t.at(b, a));
}

TEST(Distance, CompleteGraphStats) {
  const Graph g = make_complete(10);
  const DistanceTable t(g);
  EXPECT_EQ(t.diameter(), 1);
  // Average over ordered pairs including self: 90/100.
  EXPECT_NEAR(t.average_distance(), 0.9, 1e-12);
  EXPECT_EQ(t.eccentricity(0), 1);
}

TEST(Distance, DisconnectedReportsUnreachable) {
  Graph g(3, {{0, 1}});
  const DistanceTable t(g);
  EXPECT_FALSE(t.connected());
  EXPECT_EQ(t.diameter_if_connected(), std::nullopt);
  EXPECT_EQ(t.eccentricity_if_connected(0), std::nullopt);
  EXPECT_LT(t.average_distance(), 0);
  EXPECT_FALSE(t.reachable(0, 2));
  EXPECT_TRUE(t.reachable(0, 1));
  EXPECT_EQ(t.at(0, 2), kUnreachable);
}

TEST(DistanceDeathTest, DiameterAbortsOnDisconnectedGraph) {
  // The old behaviour returned the kUnreachable sentinel (255) as a plain
  // int, which callers multiplied into TTL bounds (4 * diameter()). The
  // sentinel is not a number; asking for it must be loud.
  Graph g(3, {{0, 1}});
  const DistanceTable t(g);
  EXPECT_DEATH((void)t.diameter(), "disconnected");
  EXPECT_DEATH((void)t.eccentricity(0), "disconnected");
}

TEST(Distance, TriangleInequalityHolds) {
  Rng rng(11);
  const Graph g = make_random_regular(18, 4, rng);
  const DistanceTable t(g);
  for (SwitchId a = 0; a < 18; ++a)
    for (SwitchId b = 0; b < 18; ++b)
      for (SwitchId c = 0; c < 18; c += 3)
        EXPECT_LE(t.at(a, b), t.at(a, c) + t.at(c, b));
}

} // namespace
} // namespace hxsp
