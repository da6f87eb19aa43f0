#pragma once
/// \file test_util.hpp
/// Shared fixtures for routing-layer tests: builds a HyperX, its distance
/// table, optionally an escape subnetwork, and a NetworkContext over them.

#include <memory>

#include "core/escape_updown.hpp"
#include "routing/mechanism.hpp"
#include "topology/distance.hpp"
#include "topology/hyperx.hpp"

namespace hxsp::testutil {

/// Owns every long-lived structure a routing test needs.
struct TestNet {
  std::unique_ptr<HyperX> hx;
  std::unique_ptr<DistanceTable> dist;
  std::unique_ptr<EscapeUpDown> escape;
  NetworkContext ctx;

  /// Rebuilds distance tables and escape (call after fault injection).
  void rebuild(SwitchId escape_root = 0, bool strict = false,
               bool shortcuts = true) {
    dist = std::make_unique<DistanceTable>(hx->graph());
    EscapeUpDown::Config ecfg;
    ecfg.root = escape_root;
    ecfg.strict_phase = strict;
    ecfg.use_shortcuts = shortcuts;
    escape = std::make_unique<EscapeUpDown>(hx->graph(), ecfg);
    ctx.graph = &hx->graph();
    ctx.hyperx = hx.get();
    ctx.dist = dist.get();
    ctx.escape = escape.get();
  }
};

/// A regular HyperX of \p dims dimensions and side \p side with contexts.
inline TestNet make_net(int dims, int side, int num_vcs = 4,
                        int servers_per_switch = 1) {
  TestNet t;
  t.hx = std::make_unique<HyperX>(
      std::vector<int>(static_cast<std::size_t>(dims), side),
      servers_per_switch);
  t.rebuild();
  t.ctx.num_vcs = num_vcs;
  return t;
}

/// A packet routed from switch \p src to switch \p dst (server 0 each).
inline Packet make_packet(const TestNet& t, SwitchId src, SwitchId dst) {
  Packet p;
  p.id = 1;
  p.src_switch = src;
  p.dst_switch = dst;
  p.dst_server = dst * t.hx->servers_per_switch();
  return p;
}

} // namespace hxsp::testutil
