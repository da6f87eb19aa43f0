#include "topology/builders.hpp"

#include <algorithm>
#include <set>

namespace hxsp {

Graph make_complete(SwitchId n) {
  std::vector<Graph::Edge> edges;
  for (SwitchId a = 0; a < n; ++a)
    for (SwitchId b = a + 1; b < n; ++b) edges.push_back({a, b});
  return Graph(n, edges);
}

Graph make_mesh(int rows, int cols) {
  HXSP_CHECK(rows >= 1 && cols >= 1 && rows * cols >= 2);
  auto id = [cols](int r, int c) { return static_cast<SwitchId>(r * cols + c); };
  std::vector<Graph::Edge> edges;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back({id(r, c), id(r, c + 1)});
      if (r + 1 < rows) edges.push_back({id(r, c), id(r + 1, c)});
    }
  }
  return Graph(static_cast<SwitchId>(rows * cols), edges);
}

Graph make_torus(int rows, int cols) {
  HXSP_CHECK_MSG(rows >= 3 && cols >= 3, "torus sides must be >= 3");
  auto id = [cols](int r, int c) { return static_cast<SwitchId>(r * cols + c); };
  std::vector<Graph::Edge> edges;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      edges.push_back({id(r, c), id(r, (c + 1) % cols)});
      edges.push_back({id(r, c), id((r + 1) % rows, c)});
    }
  }
  return Graph(static_cast<SwitchId>(rows * cols), edges);
}

Graph make_random_regular(SwitchId n, int degree, Rng& rng) {
  HXSP_CHECK(degree >= 1 && degree < n);
  HXSP_CHECK_MSG((static_cast<long>(n) * degree) % 2 == 0,
                 "n * degree must be even");
  // The pairing model accepts a sample with probability roughly
  // exp(-(d^2-1)/4) — about 1/6000 at degree 6 — so allow a generous
  // retry budget; each attempt is microseconds at the sizes we use.
  for (int attempt = 0; attempt < 100000; ++attempt) {
    // Pairing model: each switch contributes `degree` stubs; a random
    // perfect matching of stubs becomes the edge set. Reject matchings
    // with self-loops or parallel edges, then require connectivity.
    std::vector<SwitchId> stubs;
    stubs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(degree));
    for (SwitchId s = 0; s < n; ++s)
      for (int d = 0; d < degree; ++d) stubs.push_back(s);
    rng.shuffle(stubs);

    std::set<std::pair<SwitchId, SwitchId>> edges;
    bool ok = true;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      SwitchId a = stubs[i], b = stubs[i + 1];
      if (a == b) {
        ok = false;
        break;
      }
      if (a > b) std::swap(a, b);
      if (!edges.insert({a, b}).second) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;

    Graph g(n, std::vector<Graph::Edge>(edges.begin(), edges.end()));
    if (g.connected()) return g;
  }
  HXSP_CHECK_MSG(false, "could not sample a connected random regular graph");
  return Graph(1, {}); // unreachable
}

Graph make_dragonfly(int a, int h) {
  HXSP_CHECK(a >= 2 && h >= 1);
  const int groups = a * h + 1;
  const SwitchId n = static_cast<SwitchId>(groups) * a;
  std::vector<Graph::Edge> edges;
  auto sw = [a](int group, int local) {
    return static_cast<SwitchId>(group * a + local);
  };
  // Local topology: each group is a complete graph K_a.
  for (int grp = 0; grp < groups; ++grp)
    for (int i = 0; i < a; ++i)
      for (int j = i + 1; j < a; ++j) edges.push_back({sw(grp, i), sw(grp, j)});
  // Global topology: palmtree arrangement — group G's k-th global link
  // (k in [0, a*h)) connects switch k/h of G to group (G + k + 1) mod
  // groups, landing on that group's switch (a*h - 1 - k)/h. Every ordered
  // pair of groups gets exactly one link; adding only when the offset
  // stays below half the ring (with the tie at the middle broken by group
  // order) creates each undirected link once.
  for (int grp = 0; grp < groups; ++grp) {
    for (int k = 0; k < a * h; ++k) {
      const int peer = (grp + k + 1) % groups;
      const int back = (peer + (a * h - 1 - k) + 1) % groups;
      HXSP_CHECK(back == grp); // palmtree reciprocity
      if (grp < peer) {
        edges.push_back({sw(grp, k / h), sw(peer, (a * h - 1 - k) / h)});
      }
    }
  }
  Graph g(n, edges);
  HXSP_CHECK(g.connected());
  return g;
}

} // namespace hxsp
