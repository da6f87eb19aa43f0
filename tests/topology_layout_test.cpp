/// \file topology_layout_test.cpp
/// Pins the port and link layout of every topology the simulator builds.
///
/// Port numbers and link ids name fault sets, escape colourings and the
/// per-port router state, so any change to them changes results. Each
/// topology is compared against a test-local reference that builds the
/// same edge sequence the plain way: per-switch port lists appended in
/// insertion order, links numbered in edge order. For HyperX the reference
/// also derives the edge sequence itself (slot-major loop, coordinate
/// vectors and switch_at), independent of the library's arithmetic.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "topology/builders.hpp"
#include "topology/graph.hpp"
#include "topology/hyperx.hpp"
#include "util/rng.hpp"

namespace hxsp {
namespace {

using EdgeList = std::vector<std::pair<SwitchId, SwitchId>>;

/// Insertion-order layout held in its own arrays, not in a Graph.
struct RefLayout {
  std::vector<std::vector<PortInfo>> ports;
  std::vector<Graph::LinkEnds> links;

  RefLayout(SwitchId n, const EdgeList& edges)
      : ports(static_cast<std::size_t>(n)) {
    for (const auto& [a, b] : edges) {
      auto& pa = ports[static_cast<std::size_t>(a)];
      auto& pb = ports[static_cast<std::size_t>(b)];
      const auto id = static_cast<LinkId>(links.size());
      const auto na = static_cast<Port>(pa.size());
      const auto nb = static_cast<Port>(pb.size());
      pa.push_back({b, nb, id});
      pb.push_back({a, na, id});
      links.push_back({a, b, na, nb});
    }
  }
};

void expect_layout(const Graph& g, const RefLayout& ref) {
  ASSERT_EQ(g.num_switches(), static_cast<SwitchId>(ref.ports.size()));
  ASSERT_EQ(g.num_links(), static_cast<LinkId>(ref.links.size()));
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    const auto& want = ref.ports[static_cast<std::size_t>(s)];
    ASSERT_EQ(g.degree(s), static_cast<Port>(want.size())) << "switch " << s;
    for (Port p = 0; p < g.degree(s); ++p) {
      const PortInfo& got = g.port(s, p);
      const PortInfo& w = want[static_cast<std::size_t>(p)];
      ASSERT_EQ(got.neighbor, w.neighbor) << "switch " << s << " port " << p;
      ASSERT_EQ(got.remote_port, w.remote_port) << "switch " << s << " port " << p;
      ASSERT_EQ(got.link, w.link) << "switch " << s << " port " << p;
    }
  }
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const auto& got = g.link(l);
    const auto& w = ref.links[static_cast<std::size_t>(l)];
    ASSERT_EQ(got.a, w.a) << "link " << l;
    ASSERT_EQ(got.b, w.b) << "link " << l;
    ASSERT_EQ(got.port_a, w.port_a) << "link " << l;
    ASSERT_EQ(got.port_b, w.port_b) << "link " << l;
  }
}

/// HyperX edges in the original construction order: port slots in
/// ascending order (dimension blocks, then the neighbour index within the
/// block), and for each slot every switch in ascending id, adding the link
/// from its lower endpoint.
EdgeList hyperx_reference_edges(const HyperX& hx) {
  const std::vector<int>& sides = hx.sides();
  SwitchId n = 1;
  for (int k : sides) n *= k;
  std::vector<std::vector<int>> coords(static_cast<std::size_t>(n));
  for (SwitchId s = 0; s < n; ++s) {
    SwitchId rem = s;
    for (int k : sides) {
      coords[static_cast<std::size_t>(s)].push_back(static_cast<int>(rem % k));
      rem /= k;
    }
  }
  EdgeList edges;
  for (std::size_t dim = 0; dim < sides.size(); ++dim) {
    for (int idx = 0; idx + 1 < sides[dim]; ++idx) {
      for (SwitchId s = 0; s < n; ++s) {
        std::vector<int> nc = coords[static_cast<std::size_t>(s)];
        nc[dim] = idx < nc[dim] ? idx : idx + 1;
        const SwitchId t = hx.switch_at(nc);
        if (s < t) edges.push_back({s, t});
      }
    }
  }
  return edges;
}

TEST(TopologyLayout, HyperXMatchesInsertionOrderReference) {
  const std::vector<std::vector<int>> shapes = {
      {5}, {3, 5}, {3, 5, 4}, {2, 3, 2, 2}, {8, 8, 8}};
  for (const auto& sides : shapes) {
    SCOPED_TRACE(testing::PrintToString(sides));
    const HyperX hx(sides, 1);
    expect_layout(hx.graph(),
                  RefLayout(hx.num_switches(), hyperx_reference_edges(hx)));
  }
}

/// FNV-1a 64 over every (switch, port)'s neighbour, remote port and link
/// id, each as four little-endian bytes, switches and ports ascending.
std::uint64_t port_table_fnv(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::int32_t v) {
    const auto u = static_cast<std::uint32_t>(v);
    for (int i = 0; i < 4; ++i) {
      h ^= (u >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  };
  for (SwitchId s = 0; s < g.num_switches(); ++s)
    for (Port p = 0; p < g.degree(s); ++p) {
      const PortInfo& pi = g.port(s, p);
      mix(pi.neighbor);
      mix(pi.remote_port);
      mix(pi.link);
    }
  return h;
}

TEST(TopologyLayout, MillionServerPortTableIsPinned) {
  // The 32x32x32 fabric of the million-server benchmark: 32,768 switches,
  // 93 ports each, 1,523,712 links.
  const HyperX hx({32, 32, 32}, 1);
  EXPECT_EQ(hx.graph().num_links(), 1523712);
  EXPECT_EQ(port_table_fnv(hx.graph()), 0xd203d33db685c665ULL);
}

// --- builders ---------------------------------------------------------------

EdgeList complete_edges(SwitchId n) {
  EdgeList e;
  for (SwitchId a = 0; a < n; ++a)
    for (SwitchId b = a + 1; b < n; ++b) e.push_back({a, b});
  return e;
}

TEST(TopologyLayout, CompleteMatchesReference) {
  expect_layout(make_complete(6), RefLayout(6, complete_edges(6)));
}

TEST(TopologyLayout, MeshMatchesReference) {
  const int rows = 3, cols = 4;
  EdgeList e;
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) e.push_back({r * cols + c, r * cols + c + 1});
      if (r + 1 < rows) e.push_back({r * cols + c, (r + 1) * cols + c});
    }
  expect_layout(make_mesh(rows, cols), RefLayout(rows * cols, e));
}

TEST(TopologyLayout, TorusMatchesReference) {
  const int rows = 3, cols = 4;
  EdgeList e;
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      e.push_back({r * cols + c, r * cols + (c + 1) % cols});
      e.push_back({r * cols + c, ((r + 1) % rows) * cols + c});
    }
  expect_layout(make_torus(rows, cols), RefLayout(rows * cols, e));
}

TEST(TopologyLayout, RandomRegularAddsEdgesInAscendingOrder) {
  // The sampled edge set is emitted in ascending (a, b) order.
  Rng rng(3);
  const Graph g = make_random_regular(20, 4, rng);
  EdgeList e;
  for (LinkId l = 0; l < g.num_links(); ++l)
    e.push_back({g.link(l).a, g.link(l).b});
  for (std::size_t i = 0; i < e.size(); ++i) {
    EXPECT_LT(e[i].first, e[i].second);
    if (i > 0) {
      EXPECT_LT(e[i - 1], e[i]);
    }
  }
  expect_layout(g, RefLayout(20, e));
}

TEST(TopologyLayout, DragonflyMatchesReference) {
  const int a = 4, h = 2, groups = a * h + 1;
  EdgeList e;
  for (int grp = 0; grp < groups; ++grp)
    for (int i = 0; i < a; ++i)
      for (int j = i + 1; j < a; ++j) e.push_back({grp * a + i, grp * a + j});
  for (int grp = 0; grp < groups; ++grp)
    for (int k = 0; k < a * h; ++k) {
      const int peer = (grp + k + 1) % groups;
      if (grp < peer) e.push_back({grp * a + k / h, peer * a + (a * h - 1 - k) / h});
    }
  expect_layout(make_dragonfly(a, h), RefLayout(groups * a, e));
}

} // namespace
} // namespace hxsp
