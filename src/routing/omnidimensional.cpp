#include "routing/omnidimensional.hpp"

namespace hxsp {

namespace {

/// The deroute budget m: the paper's m = n, the number of dimensions.
int budget(const NetworkContext& ctx) {
  HXSP_CHECK_MSG(ctx.hyperx, "Omnidimensional requires a HyperX topology");
  return ctx.hyperx->dims();
}

} // namespace

void OmnidimensionalAlgorithm::ports(const NetworkContext& ctx, const Packet& p,
                                     SwitchId sw,
                                     std::vector<Candidate>& out) const {
  const HyperX& hx = *ctx.hyperx;
  const Graph& g = *ctx.graph;
  const bool may_deroute = p.deroutes < budget(ctx);
  for (int dim = 0; dim < hx.dims(); ++dim) {
    const int own = hx.coord(sw, dim);
    const int tgt = hx.coord(p.dst_switch, dim);
    if (own == tgt) continue; // aligned dimensions are never left
    for (int a = 0; a < hx.side(dim); ++a) {
      if (a == own) continue;
      const bool minimal = a == tgt;
      if (!minimal && !may_deroute) continue;
      const Port q = hx.port_towards(sw, dim, a);
      if (!g.port_alive(sw, q)) continue;
      out.push_back(Candidate::route(q, minimal ? 0 : kDeroutePenalty));
    }
  }
}

void OmnidimensionalAlgorithm::commit(const NetworkContext& ctx, Packet& p,
                                      SwitchId from, Port port) const {
  const HyperX& hx = *ctx.hyperx;
  const int dim = hx.port_dim(from, port);
  const SwitchId next = ctx.graph->port(from, port).neighbor;
  if (hx.coord(next, dim) != hx.coord(p.dst_switch, dim)) {
    HXSP_DCHECK(p.deroutes < budget(ctx));
    ++p.deroutes;
  }
}

} // namespace hxsp
