#pragma once
/// \file minimal.hpp
/// Minimal (shortest-path) routing over BFS distance tables.
///
/// "Very general routing algorithms, such as Minimal, keep working, only
/// requiring to run a BFS to recompute the routing tables" (paper §1).
/// Every alive neighbour one hop closer to the destination is a candidate
/// with no penalty — fully adaptive among minimal next hops.
///
/// On a HyperX most hops cost O(dims), not one probe per port: faults only
/// lengthen distances, so no switch is nearer a target than its Hamming
/// distance h. When a switch sits at exactly h, a neighbour one hop closer
/// must have set one differing coordinate to the target's, and only those
/// <= dims ports are probed. Detoured pairs (distance > h) and non-HyperX
/// graphs scan every alive port.

#include "routing/mechanism.hpp"

namespace hxsp {

/// Appends, in ascending port order and with no penalty, a
/// Candidate::route entry for every alive port of \p sw whose neighbour is
/// one hop closer to \p target. The shared next-hop rule of Minimal and of
/// both Valiant phases; appends nothing when \p sw is the target or cannot
/// reach it.
void minimal_next_hops(const NetworkContext& ctx, SwitchId target, SwitchId sw,
                       std::vector<Candidate>& out);

/// Table-based minimal routing; works on any topology, with or without
/// faults (distances already reflect the fault set).
class MinimalAlgorithm final : public RouteAlgorithm {
 public:
  void ports(const NetworkContext& ctx, const Packet& p, SwitchId sw,
             std::vector<Candidate>& out) const override;
};

} // namespace hxsp
