#pragma once
/// \file polarized.hpp
/// Polarized routing [Camarero et al., HOTI'21 / IEEE Micro'22]
/// (paper §3.1.2).
///
/// Routes are built hop by hop so that the weight function
///     mu_{s,t}(c) = d(c,s) - d(c,t)
/// never decreases. For a neighbour n of the current switch c, with
/// Ds = d(n,s)-d(c,s) and Dt = d(n,t)-d(c,t), the change is
/// Dmu = Ds - Dt in [-2, 2]; candidates require Dmu >= 0, and the two
/// Dmu = 0 entries of the paper's Table 1 are filtered by route half:
/// "departs both" only while closer to the source, "approaches both" only
/// while closer to the destination — which prevents cycles.
/// Priorities: Dmu = 2 -> P = 0, Dmu = 1 -> P = 64, Dmu = 0 -> P = 80.
///
/// Everything is read from the BFS distance tables, so Polarized
/// "discovers the topology at boot time, upgrade or failure" (§1) and
/// works unmodified on faulty or non-HyperX networks.

#include "routing/mechanism.hpp"

namespace hxsp {

/// The Polarized route set (topology-agnostic, table-based).
class PolarizedAlgorithm final : public RouteAlgorithm {
 public:
  /// The paper's penalty per Dmu value, in phits.
  static constexpr int kDmu2Penalty = 0;
  static constexpr int kDmu1Penalty = 64;
  static constexpr int kDmu0Penalty = 80;

  void ports(const NetworkContext& ctx, const Packet& p, SwitchId sw,
             std::vector<Candidate>& out) const override;
};

} // namespace hxsp
