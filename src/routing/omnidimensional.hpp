#pragma once
/// \file omnidimensional.hpp
/// Omnidimensional adaptive routing for HyperX (paper §3.1.1; the route
/// set used by DAL [1] and OmniWAR [24]).
///
/// At each hop a packet may move only through dimensions where its current
/// coordinate differs from the destination's. Within such a dimension the
/// aligning neighbour is a *minimal* candidate (P = 0) and every other
/// neighbour is a *deroute* (P = 64), allowed while the packet still has
/// non-minimal budget. The budget m is global across dimensions; the paper
/// uses m = n (always sufficient), giving routes of at most n + m hops.

#include "routing/mechanism.hpp"

namespace hxsp {

/// Omnidimensional route set (HyperX only) with the paper's budget m = n.
class OmnidimensionalAlgorithm final : public RouteAlgorithm {
 public:
  /// P for non-minimal candidates, in phits (paper §3.1.1).
  static constexpr int kDeroutePenalty = 64;

  void ports(const NetworkContext& ctx, const Packet& p, SwitchId sw,
             std::vector<Candidate>& out) const override;

  void commit(const NetworkContext& ctx, Packet& p, SwitchId from,
              Port port) const override;
};

} // namespace hxsp
