#include "routing/valiant.hpp"

#include "routing/minimal.hpp"

namespace hxsp {

void ValiantAlgorithm::on_inject(const NetworkContext& ctx, Packet& p,
                                 Rng& rng) const {
  p.valiant_mid = static_cast<SwitchId>(
      rng.next_below(static_cast<std::uint64_t>(ctx.graph->num_switches())));
  p.valiant_phase2 = p.valiant_mid == p.src_switch;
}

void ValiantAlgorithm::on_arrival(const NetworkContext&, Packet& p,
                                  SwitchId sw) const {
  if (!p.valiant_phase2 && sw == p.valiant_mid) p.valiant_phase2 = true;
}

void ValiantAlgorithm::ports(const NetworkContext& ctx, const Packet& p,
                             SwitchId sw, std::vector<Candidate>& out) const {
  minimal_next_hops(ctx, p.valiant_phase2 ? p.dst_switch : p.valiant_mid, sw,
                    out);
}

} // namespace hxsp
