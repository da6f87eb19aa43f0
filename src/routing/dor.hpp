#pragma once
/// \file dor.hpp
/// Dimension Ordered Routing for HyperX.
///
/// Corrects the lowest-index unaligned dimension first, yielding a single
/// deterministic path per source/destination pair. Deadlock-free with one
/// VC (dependencies only flow from lower to higher dimensions), but — as
/// the paper stresses (§1, §6) — "DOR routing would leave switches
/// disconnected when just a single link is removed": when the unique next
/// link is faulty this algorithm offers no candidate at all. We implement
/// it as the motivating baseline; the fault tests rely on that failure.

#include "routing/mechanism.hpp"

namespace hxsp {

/// Deterministic dimension-ordered routing (HyperX only).
class DorAlgorithm final : public RouteAlgorithm {
 public:
  void ports(const NetworkContext& ctx, const Packet& p, SwitchId sw,
             std::vector<Candidate>& out) const override;
};

} // namespace hxsp
