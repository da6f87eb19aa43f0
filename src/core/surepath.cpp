#include "core/surepath.hpp"

namespace hxsp {

SurePathMechanism::SurePathMechanism(std::unique_ptr<RouteAlgorithm> algo,
                                     std::string display,
                                     CRoutVcPolicy vc_policy)
    : algo_(std::move(algo)), display_(std::move(display)),
      vc_policy_(vc_policy) {
  HXSP_CHECK(algo_ != nullptr);
}

CRoutVcPolicy SurePathMechanism::resolved_policy(const NetworkContext& ctx) const {
  if (vc_policy_ != CRoutVcPolicy::Auto) return vc_policy_;
  // Rung needs enough rungs to ladder a typical maximal route
  // (2*diameter); with fewer VCs the rung concentration costs more than
  // the ordering buys, and Free wins (bench/ablation_crout_policy.cpp).
  const int route_rungs =
      ctx.hyperx ? 2 * ctx.hyperx->dims() - 1 : 2 * ctx.dist->diameter() - 1;
  return (ctx.num_vcs - 1) >= route_rungs ? CRoutVcPolicy::Rung
                                          : CRoutVcPolicy::Free;
}

void SurePathMechanism::candidates(const NetworkContext& ctx, const Packet& p,
                                   SwitchId sw, RouteScratch& scratch,
                                   std::vector<Candidate>& out) const {
  HXSP_CHECK_MSG(ctx.escape, "SurePath requires an escape subnetwork");
  HXSP_CHECK_MSG(ctx.num_vcs >= 2, "SurePath needs at least 2 VCs");
  const Vc esc_vc = static_cast<Vc>(ctx.num_vcs - 1);
  const Vc top = static_cast<Vc>(ctx.num_vcs - 2);

  // Rule 1: routing candidates, only for packets still on CRout; the CRout
  // VC discipline is configurable (see CRoutVcPolicy). Deadlock freedom
  // rests on the escape subnetwork in every mode, which is what allows
  // SurePath to run with as few as 2 VCs and under faults (§3.1.2).
  if (!p.in_escape) {
    scratch.ports.clear();
    algo_->ports(ctx, p, sw, scratch.ports);
    Vc lo = 0, hi = top;
    switch (resolved_policy(ctx)) {
      case CRoutVcPolicy::Free:
      case CRoutVcPolicy::Auto: // resolved above; keep -Wswitch happy
        break;
      case CRoutVcPolicy::Monotone:
        lo = p.cur_vc <= top ? p.cur_vc : top;
        break;
      case CRoutVcPolicy::Rung:
        lo = hi = p.hops < top ? static_cast<Vc>(p.hops) : top;
        break;
    }
    for (const PortCand& pc : scratch.ports)
      for (Vc v = lo; v <= hi; ++v)
        out.push_back({pc.port, v, pc.penalty, false, false});
  }

  // Rule 2: escape candidates for every packet, on the escape VC. Once on
  // CEsc a packet never returns to CRout.
  std::vector<EscapeCand>& esc = scratch.escape;
  esc.clear();
  ctx.escape->candidates(sw, p.dst_switch, p.escape_gone_down, esc);
  for (const EscapeCand& ec : esc)
    out.push_back({ec.port, esc_vc, ec.penalty, true, ec.down_black});
}

void SurePathMechanism::injection_vcs(const NetworkContext& ctx, const Packet&,
                                      std::vector<Vc>& out) const {
  switch (resolved_policy(ctx)) {
    case CRoutVcPolicy::Free:
    case CRoutVcPolicy::Monotone:
    case CRoutVcPolicy::Auto:
      // Fresh packets may start on any CRout VC (join the emptiest).
      for (Vc v = 0; v + 1 < ctx.num_vcs; ++v) out.push_back(v);
      break;
    case CRoutVcPolicy::Rung:
      out.push_back(0);
      break;
  }
}

void SurePathMechanism::commit_hop(const NetworkContext& ctx, Packet& p,
                                   SwitchId from, const Candidate& cand) const {
  if (cand.escape) {
    p.in_escape = true;
    if (cand.escape_down) p.escape_gone_down = true;
  } else {
    HXSP_DCHECK(!p.in_escape); // CEsc -> CRout is forbidden
    algo_->commit(ctx, p, from, {cand.port, cand.penalty, false});
  }
  p.cur_vc = cand.vc;
  ++p.hops;
}

} // namespace hxsp
