#include "routing/mechanism.hpp"

#include "core/escape_updown.hpp"

namespace hxsp {

namespace {

/// Sets the VC range [lo, hi] on the entries out[first..] a producer just
/// appended.
void set_vcs(std::vector<Candidate>& out, std::size_t first, Vc lo, Vc hi) {
  for (std::size_t i = first; i < out.size(); ++i) {
    out[i].vc_lo = static_cast<std::uint8_t>(lo);
    out[i].vc_hi = static_cast<std::uint8_t>(hi);
  }
}

} // namespace

RoutingMechanism::RoutingMechanism(std::unique_ptr<RouteAlgorithm> algo,
                                   std::string display, CRoutVcPolicy policy,
                                   int rung_vcs, bool escape)
    : algo_(std::move(algo)), display_(std::move(display)), policy_(policy),
      rung_vcs_(rung_vcs), escape_(escape) {
  HXSP_CHECK(algo_ != nullptr);
  HXSP_CHECK(rung_vcs_ == 1 || rung_vcs_ == 2);
}

RoutingMechanism RoutingMechanism::ladder(std::unique_ptr<RouteAlgorithm> algo,
                                          int rung_vcs, std::string display) {
  return RoutingMechanism(std::move(algo), std::move(display),
                          CRoutVcPolicy::Rung, rung_vcs, false);
}

RoutingMechanism RoutingMechanism::surepath(std::unique_ptr<RouteAlgorithm> algo,
                                            std::string display,
                                            CRoutVcPolicy policy) {
  return RoutingMechanism(std::move(algo), std::move(display), policy, 1, true);
}

CRoutVcPolicy RoutingMechanism::resolved_policy(const NetworkContext& ctx) const {
  if (policy_ != CRoutVcPolicy::Auto) return policy_;
  // Rung needs enough rungs to ladder a typical maximal route
  // (2*diameter); with fewer VCs the rung concentration costs more than
  // the ordering buys, and Free wins (bench/ablation_crout_policy.cpp).
  const int route_rungs =
      ctx.hyperx ? 2 * ctx.hyperx->dims() - 1 : 2 * ctx.dist->diameter() - 1;
  return (ctx.num_vcs - 1) >= route_rungs ? CRoutVcPolicy::Rung
                                          : CRoutVcPolicy::Free;
}

VcRange RoutingMechanism::routing_vcs(const NetworkContext& ctx, int hops,
                                      Vc cur_vc) const {
  const int vcs = ctx.num_vcs - (escape_ ? 1 : 0);
  const Vc top = static_cast<Vc>(vcs - 1);
  switch (resolved_policy(ctx)) {
    case CRoutVcPolicy::Free:
    case CRoutVcPolicy::Auto: // resolved above; keep -Wswitch happy
      break;
    case CRoutVcPolicy::Monotone:
      return {cur_vc <= top ? cur_vc : top, top};
    case CRoutVcPolicy::Rung: {
      // Saturate at the top rung: routes longer than the ladder keep using
      // the last VC(s). Under faults the ladder's guarantee is void, which
      // is precisely the paper's argument for SurePath.
      const int step = hops * rung_vcs_;
      const int top_rung = vcs - rung_vcs_;
      const Vc lo = static_cast<Vc>(step < top_rung ? step : top_rung);
      return {lo, static_cast<Vc>(lo + rung_vcs_ - 1)};
    }
  }
  return {0, top};
}

void RoutingMechanism::candidates(const NetworkContext& ctx, const Packet& p,
                                  SwitchId sw,
                                  std::vector<Candidate>& out) const {
  HXSP_CHECK_MSG(!escape_ || ctx.escape,
                 "SurePath requires an escape subnetwork");
  // Rule 1: routing candidates, only for packets still on CRout (a ladder
  // packet always is).
  if (!p.in_escape) {
    const std::size_t first = out.size();
    algo_->ports(ctx, p, sw, out);
    const VcRange r = routing_vcs(ctx, p.hops, p.cur_vc);
    set_vcs(out, first, r.lo, r.hi);
  }
  if (!escape_) return;

  // Rule 2: escape candidates for every packet, on the escape VC. Once on
  // CEsc a packet never returns to CRout.
  const std::size_t first = out.size();
  ctx.escape->candidates(sw, p.dst_switch, p.escape_gone_down, out);
  const auto esc_vc = static_cast<Vc>(ctx.num_vcs - 1);
  set_vcs(out, first, esc_vc, esc_vc);
}

void RoutingMechanism::commit_hop(const NetworkContext& ctx, Packet& p,
                                  SwitchId from, const Candidate& cand,
                                  Vc vc) const {
  HXSP_DCHECK(vc >= cand.vc_lo && vc <= cand.vc_hi);
  if (cand.escape) {
    p.in_escape = true;
    if (cand.escape_down) p.escape_gone_down = true;
  } else {
    HXSP_DCHECK(!p.in_escape); // CEsc -> CRout is forbidden
    algo_->commit(ctx, p, from, cand.port);
  }
  p.cur_vc = vc;
  ++p.hops;
}

} // namespace hxsp
