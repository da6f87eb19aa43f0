#include "routing/polarized.hpp"

namespace hxsp {

void PolarizedAlgorithm::ports(const NetworkContext& ctx, const Packet& p,
                               SwitchId sw, std::vector<Candidate>& out) const {
  const Graph& g = *ctx.graph;
  // Distances are symmetric, so d(neighbor, src/dst) reads from rows
  // anchored at src/dst — contiguous bytes (dense provider) or cached
  // algebraic probes (computed provider), shared by every neighbour.
  const DistRow from_src(*ctx.dist, p.src_switch);
  const DistRow from_dst(*ctx.dist, p.dst_switch);
  const int dcs = from_src[sw];
  const int dct = from_dst[sw];
  if (dct == kUnreachable || dct == 0) return;
  // The paper's header boolean d(c,s) < d(c,t): still in the first half.
  const bool first_half = dcs < dct;

  for (const AlivePort& ap : g.alive_ports(sw)) {
    const int ds = from_src[ap.neighbor] - dcs;
    const int dt = from_dst[ap.neighbor] - dct;
    const int dmu = ds - dt;
    if (dmu < 0) continue;
    if (dmu == 0) {
      // Table 1 admits exactly (+1,+1) and (-1,-1); (0,0) is excluded.
      if (ds == 1 && dt == 1) {
        if (!first_half) continue; // departing both only near the source
      } else if (ds == -1 && dt == -1) {
        if (first_half) continue; // approaching both only near the target
      } else {
        continue;
      }
      out.push_back(Candidate::route(ap.port, kDmu0Penalty));
    } else if (dmu == 1) {
      out.push_back(Candidate::route(ap.port, kDmu1Penalty));
    } else { // dmu == 2: approaches target, departs source
      out.push_back(Candidate::route(ap.port, kDmu2Penalty));
    }
  }
}

} // namespace hxsp
