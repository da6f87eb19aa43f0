#pragma once
/// \file surepath.hpp
/// SurePath — the paper's routing mechanism (§3).
///
/// The virtual channels of every port are split into two sets:
///   * CRout = VCs [0, num_vcs-1): carries the bulk of the load with a
///     fully adaptive base routing (Omnidimensional or Polarized). Because
///     deadlock is handled by the escape, a packet may use *any* CRout VC
///     at every hop — no ladder, which is why SurePath needs only 2 VCs to
///     be correct and spends the rest on performance.
///   * CEsc = the last VC: the opportunistic Up/Down escape subnetwork.
///
/// Transition rules (paper §3):
///  1. A packet on CRout requests the neighbours returned by the base
///     routing, on any CRout VC, at the base routing's penalties.
///  2. Every packet — on CRout or CEsc — additionally requests its escape
///     candidates on CEsc, at the (high) escape penalties.
///  Moves from CEsc back to CRout are forbidden.
/// A "forced hop" happens when rule 1 yields no candidate (e.g. all
/// Omnidimensional next links are faulty): the packet can still advance
/// through the escape, which is what makes SurePath fault-tolerant.

#include <memory>

#include "core/escape_updown.hpp"
#include "routing/mechanism.hpp"

namespace hxsp {

/// How SurePath assigns CRout virtual channels to routing candidates.
///
/// The paper's Table 4 keeps each base routing's own VC convention inside
/// CRout; the escape guarantees deadlock freedom either way:
///  * Free     — any CRout VC each hop (fully adaptive; best for the short,
///               bounded Omnidimensional routes).
///  * Monotone — any CRout VC >= the packet's current one (cheap partial
///               order: acyclic until the top VC, adaptive within it).
///  * Rung     — exactly the hop-indexed ladder rung, saturating at the
///               top (the classic discipline Polarized ships with; tames
///               its long exploratory routes under saturation).
///  * Auto     — Rung when the CRout VCs can ladder a 2*diameter route
///               (i.e. num_vcs-1 >= 2n-1 on an n-dim HyperX), Free
///               otherwise. Matches the measured best cell at every VC
///               budget (bench/ablation_crout_policy.cpp).
enum class CRoutVcPolicy { Free, Monotone, Rung, Auto };

/// The SurePath routing mechanism: base RouteAlgorithm + Up/Down escape.
class SurePathMechanism final : public RoutingMechanism {
 public:
  /// \p display is the paper's name for the configuration ("OmniSP",
  /// "PolSP"). The escape subnetwork is found through the NetworkContext.
  SurePathMechanism(std::unique_ptr<RouteAlgorithm> algo, std::string display,
                    CRoutVcPolicy vc_policy = CRoutVcPolicy::Monotone);

  std::string name() const override { return display_; }

  void candidates(const NetworkContext& ctx, const Packet& p, SwitchId sw,
                  RouteScratch& scratch,
                  std::vector<Candidate>& out) const override;

  void injection_vcs(const NetworkContext& ctx, const Packet& p,
                     std::vector<Vc>& out) const override;

  void on_inject(const NetworkContext& ctx, Packet& p, Rng& rng) const override {
    algo_->on_inject(ctx, p, rng);
  }

  void on_arrival(const NetworkContext& ctx, Packet& p, SwitchId sw) const override {
    algo_->on_arrival(ctx, p, sw);
  }

  void commit_hop(const NetworkContext& ctx, Packet& p, SwitchId from,
                  const Candidate& cand) const override;

  bool needs_escape() const override { return true; }

  /// The base route set (tests and diagnostics).
  const RouteAlgorithm& algorithm() const { return *algo_; }

  /// The configured CRout VC policy (possibly Auto).
  CRoutVcPolicy vc_policy() const { return vc_policy_; }

  /// The policy Auto resolves to for a given context.
  CRoutVcPolicy resolved_policy(const NetworkContext& ctx) const;

 private:
  std::unique_ptr<RouteAlgorithm> algo_;
  std::string display_;
  CRoutVcPolicy vc_policy_;
};

} // namespace hxsp
