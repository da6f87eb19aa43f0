#include "routing/minimal.hpp"

namespace hxsp {

void minimal_next_hops(const NetworkContext& ctx, SwitchId target, SwitchId sw,
                       std::vector<Candidate>& out) {
  const Graph& g = *ctx.graph;
  // One anchored row serves the switch probe and every neighbour probe
  // (distances are symmetric); works for dense and computed providers.
  const DistRow row(*ctx.dist, target);
  const int d = row[sw];
  if (d == kUnreachable || d == 0) return;
  const HyperX* hx = ctx.hyperx;
  if (hx != nullptr && d == hx->hamming_distance(sw, target)) {
    HXSP_DCHECK(&hx->graph() == &g);  // port_towards numbers g's ports
    // No switch is nearer than its Hamming distance, and a hop changes one
    // coordinate, so a neighbour at d-1 sets a differing coordinate to the
    // target's. Ascending dimension is ascending port order.
    for (int dim = 0; dim < hx->dims(); ++dim) {
      const int c = hx->coord(target, dim);
      if (c == hx->coord(sw, dim)) continue;
      const Port port = hx->port_towards(sw, dim, c);
      if (g.port_alive(sw, port) && row[g.port(sw, port).neighbor] == d - 1)
        out.push_back(Candidate::route(port, 0));
    }
    return;
  }
  for (const AlivePort& ap : g.alive_ports(sw))
    if (row[ap.neighbor] == d - 1) out.push_back(Candidate::route(ap.port, 0));
}

void MinimalAlgorithm::ports(const NetworkContext& ctx, const Packet& p,
                             SwitchId sw, std::vector<Candidate>& out) const {
  minimal_next_hops(ctx, p.dst_switch, sw, out);
}

} // namespace hxsp
