#include "topology/graph.hpp"

namespace hxsp {

Graph::Graph(SwitchId num_switches, const std::vector<Edge>& edges) {
  HXSP_CHECK(num_switches > 0);
  const auto n = static_cast<std::size_t>(num_switches);
  // Counting pass: degrees, then offsets by prefix sum.
  offsets_.assign(n + 1, 0);
  for (const auto& [a, b] : edges) {
    HXSP_CHECK(a >= 0 && a < num_switches && b >= 0 && b < num_switches);
    HXSP_CHECK_MSG(a != b, "self-loop links are not allowed");
    ++offsets_[static_cast<std::size_t>(a) + 1];
    ++offsets_[static_cast<std::size_t>(b) + 1];
  }
  for (std::size_t s = 0; s < n; ++s) offsets_[s + 1] += offsets_[s];

  // Fill pass in edge order: each endpoint's next free slot is its next
  // port number, so ports follow insertion order and link ids edge order.
  // alive_degree_ counts the slots filled so far; compact_alive below
  // leaves it at the full degree, since every link starts alive.
  ports_.resize(offsets_[n]);
  alive_degree_.assign(n, 0);
  links_.resize(edges.size());
  link_alive_.assign(edges.size(), 1);
  alive_links_ = static_cast<LinkId>(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto [a, b] = edges[i];
    const auto id = static_cast<LinkId>(i);
    Port& pa = alive_degree_[static_cast<std::size_t>(a)];
    Port& pb = alive_degree_[static_cast<std::size_t>(b)];
    ports_[offset(a) + static_cast<std::size_t>(pa)] = {b, pb, id};
    ports_[offset(b) + static_cast<std::size_t>(pb)] = {a, pa, id};
    links_[i] = {a, b, pa, pb};
    ++pa;
    ++pb;
  }
  // The alive view, filled switch by switch in slot order rather than
  // scattered by the edge pass above.
  alive_.resize(ports_.size());
  for (SwitchId s = 0; s < num_switches; ++s) compact_alive(s);
}

void Graph::compact_alive(SwitchId s) {
  const std::size_t first = offset(s);
  const std::size_t last = offset(s + 1);
  std::size_t out = first;
  for (std::size_t i = first; i < last; ++i) {
    const PortInfo& pi = ports_[i];
    if (link_alive_[static_cast<std::size_t>(pi.link)])
      alive_[out++] = {static_cast<Port>(i - first), pi.neighbor, pi.link};
  }
  alive_degree_[static_cast<std::size_t>(s)] = static_cast<Port>(out - first);
}

void Graph::set_link_alive(LinkId l, bool alive) {
  char& state = link_alive_[static_cast<std::size_t>(l)];
  if (static_cast<bool>(state) == alive) return;
  state = alive ? 1 : 0;
  alive_links_ += alive ? 1 : -1;
  compact_alive(links_[static_cast<std::size_t>(l)].a);
  compact_alive(links_[static_cast<std::size_t>(l)].b);
}

void Graph::fail_link(LinkId l) { set_link_alive(l, false); }

void Graph::restore_link(LinkId l) { set_link_alive(l, true); }

void Graph::restore_all() {
  for (LinkId l = 0; l < num_links(); ++l) restore_link(l);
}

std::vector<std::uint8_t> Graph::bfs(SwitchId source) const {
  std::vector<std::uint8_t> dist(static_cast<std::size_t>(num_switches()), kUnreachable);
  // Each switch is queued at most once, so a flat array is the queue.
  std::vector<SwitchId> queue;
  queue.reserve(dist.size());
  dist[static_cast<std::size_t>(source)] = 0;
  queue.push_back(source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const SwitchId u = queue[head];
    const std::uint8_t du = dist[static_cast<std::size_t>(u)];
    for (const AlivePort& ap : alive_ports(u)) {
      auto& dv = dist[static_cast<std::size_t>(ap.neighbor)];
      if (dv == kUnreachable) {
        // Depths beyond kUnreachable-1 do not fit the uint8 storage.
        // Silently saturating would corrupt distance-based routing (a
        // saturated entry looks closer than it is), so overflow aborts;
        // fine for HyperX (diameter = dims), and the loud failure is what
        // the large-torus roadmap item needs to widen the type first.
        HXSP_CHECK_MSG(du < kUnreachable - 1,
                       "BFS depth overflows uint8 distance storage");
        dv = static_cast<std::uint8_t>(du + 1);
        queue.push_back(ap.neighbor);
      }
    }
  }
  return dist;
}

bool Graph::connected() const { return num_components() == 1; }

int Graph::num_components() const {
  std::vector<char> seen(static_cast<std::size_t>(num_switches()), 0);
  std::vector<SwitchId> queue;
  queue.reserve(seen.size());
  int comps = 0;
  for (SwitchId s = 0; s < num_switches(); ++s) {
    if (seen[static_cast<std::size_t>(s)]) continue;
    ++comps;
    seen[static_cast<std::size_t>(s)] = 1;
    queue.assign(1, s);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (const AlivePort& ap : alive_ports(queue[head])) {
        if (!seen[static_cast<std::size_t>(ap.neighbor)]) {
          seen[static_cast<std::size_t>(ap.neighbor)] = 1;
          queue.push_back(ap.neighbor);
        }
      }
    }
  }
  return comps;
}

} // namespace hxsp
