#pragma once
/// \file valiant.hpp
/// Valiant load-balanced routing [Valiant & Brebner, STOC'81].
///
/// Every packet draws a uniformly random intermediate switch at injection
/// and routes minimally source -> intermediate -> destination. This
/// sacrifices locality to spread any admissible pattern into two uniform
/// phases, achieving the optimal 0.5 throughput on the paper's adversarial
/// Dimension Complement Reverse pattern. Each phase takes the next hops of
/// minimal_next_hops (minimal.hpp), O(dims) per hop on an undetoured
/// HyperX pair.

#include "routing/mechanism.hpp"

namespace hxsp {

/// Two-phase randomized routing; works on any topology via the distance
/// table (each phase is table-minimal and therefore fault-aware).
class ValiantAlgorithm final : public RouteAlgorithm {
 public:
  void ports(const NetworkContext& ctx, const Packet& p, SwitchId sw,
             std::vector<Candidate>& out) const override;

  void on_inject(const NetworkContext& ctx, Packet& p, Rng& rng) const override;

  void on_arrival(const NetworkContext& ctx, Packet& p, SwitchId sw) const override;
};

} // namespace hxsp
