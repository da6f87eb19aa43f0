#include "routing/dor.hpp"

namespace hxsp {

void DorAlgorithm::ports(const NetworkContext& ctx, const Packet& p,
                         SwitchId sw, std::vector<Candidate>& out) const {
  HXSP_CHECK_MSG(ctx.hyperx, "DOR requires a HyperX topology");
  const HyperX& hx = *ctx.hyperx;
  for (int dim = 0; dim < hx.dims(); ++dim) {
    const int own = hx.coord(sw, dim);
    const int tgt = hx.coord(p.dst_switch, dim);
    if (own == tgt) continue;
    const Port q = hx.port_towards(sw, dim, tgt);
    // The unique DOR next hop; if its link is dead, DOR is simply stuck —
    // that is the documented behaviour this baseline exists to exhibit.
    if (ctx.graph->port_alive(sw, q)) out.push_back(Candidate::route(q, 0));
    return;
  }
}

} // namespace hxsp
