#pragma once
/// \file mechanism.hpp
/// Routing interfaces.
///
/// Two layers, mirroring the paper's Table 4:
///  * RouteAlgorithm — *which neighbours* a packet may take next and at what
///    penalty (Minimal, DOR, Valiant, Omnidimensional, Polarized). Pure
///    port-level logic, independent of virtual-channel management.
///  * RoutingMechanism — a RouteAlgorithm plus a VC discipline: a Ladder
///    (hop-indexed VCs, the classic deadlock avoidance of OmniWAR and
///    Polarized) or SurePath (CRout/CEsc split with the Up/Down escape).
///
/// The router consults the mechanism once per eligible head packet and
/// receives (port, vc, penalty) candidates; it then applies the paper's
/// Q+P single-request allocation.

#include <memory>
#include <string>
#include <vector>

#include "sim/packet.hpp"
#include "topology/distance.hpp"
#include "topology/graph.hpp"
#include "topology/hyperx.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace hxsp {

class EscapeUpDown; // core/escape_updown.hpp

/// Everything a routing decision may consult. Owned by the harness; all
/// pointers outlive the simulation. `hyperx` and `escape` may be null for
/// mechanisms that do not need them.
struct NetworkContext {
  const Graph* graph = nullptr;
  const HyperX* hyperx = nullptr;      ///< null for generic topologies
  const DistanceProvider* dist = nullptr;
  const EscapeUpDown* escape = nullptr;///< null unless SurePath
  int num_vcs = 0;
  int packet_length = 0;
};

/// A port-level route candidate produced by a RouteAlgorithm.
struct PortCand {
  Port port = kInvalid;
  int penalty = 0;     ///< P, in phits (paper §3)
  bool deroute = false;///< non-minimal hop (consumes Omni budget)
};

/// A full (port, vc) candidate handed to the allocator.
struct Candidate {
  Port port = kInvalid;
  Vc vc = kInvalid;
  int penalty = 0;      ///< P, in phits
  bool escape = false;  ///< candidate lives on the escape subnetwork (CEsc)
  bool escape_down = false; ///< escape hop that is a black Down step
};

/// An escape-subnetwork candidate produced by EscapeUpDown for SurePath.
struct EscapeCand {
  Port port = kInvalid;
  int penalty = 0;
  bool down_black = false; ///< black Down step (sets the strict-phase bit)
};

/// Caller-owned scratch buffers for RoutingMechanism::candidates(). Keeping
/// them out of the (shared, const) mechanism object is what makes the
/// candidate phase safe to run from several router partitions at once: each
/// Router owns one RouteScratch, so concurrent candidates() calls never
/// touch common mutable state.
struct RouteScratch {
  std::vector<PortCand> ports;    ///< RouteAlgorithm::ports output
  std::vector<EscapeCand> escape; ///< EscapeUpDown::candidates output
};

/// Port-level routing logic. Stateless; per-packet state lives in the
/// Packet header fields and is updated through the hooks below.
class RouteAlgorithm {
 public:
  virtual ~RouteAlgorithm() = default;

  /// Short identifier ("minimal", "omni", "polarized", ...).
  virtual std::string name() const = 0;

  /// Appends the legal next-hop ports for \p p at switch \p sw. Never
  /// called when sw == p.dst_switch (the router ejects directly). Faulty
  /// ports must not be returned.
  virtual void ports(const NetworkContext& ctx, const Packet& p, SwitchId sw,
                     std::vector<PortCand>& out) const = 0;

  /// Called once when the packet is generated (Valiant draws its
  /// intermediate here).
  virtual void on_inject(const NetworkContext&, Packet&, Rng&) const {}

  /// Called when the packet is enqueued at a router's input buffer
  /// (Valiant flips to phase 2 at the intermediate).
  virtual void on_arrival(const NetworkContext&, Packet&, SwitchId) const {}

  /// Called when a switch-to-switch hop is granted (Omnidimensional counts
  /// deroutes here); arguments: context, packet, source switch, candidate.
  virtual void commit(const NetworkContext&, Packet&, SwitchId,
                      const PortCand&) const {}

  /// Upper bound on route length in a fault-free network, used for ladder
  /// sizing checks (e.g. 2n for Omnidimensional with m = n).
  virtual int max_hops(const NetworkContext& ctx) const = 0;
};

/// How a mechanism assigns routing VCs to a head packet. A ladder is always
/// Rung; SurePath takes any of the four over its CRout VCs. The escape
/// guarantees SurePath's deadlock freedom under every policy:
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

/// An inclusive range of virtual channels [lo, hi].
struct VcRange {
  Vc lo = 0;
  Vc hi = 0;
};

/// RouteAlgorithm + VC discipline = what the simulator actually runs.
///
/// Ladder (paper §3.1.2): "the i-th virtual channel is utilized when the
/// packet has already passed through i switch-to-switch links"
/// [Günther'81, Merlin-Schweitzer'80]. Rungs are `rung_vcs` wide: 2 VCs
/// per step for Minimal ({2*hops, 2*hops+1}), 1 for the rest. Because the
/// VC index increases monotonically along a route, the channel dependency
/// graph is acyclic and the network is deadlock-free — provided routes
/// never exceed the ladder, which is exactly what breaks under faults and
/// motivates SurePath. The rung saturates at the top instead of
/// overflowing num_vcs.
///
/// SurePath (paper §3): the VCs of every port are split into CRout =
/// VCs [0, num_vcs-1), which carries the bulk of the load with the base
/// routing under a CRoutVcPolicy, and CEsc = the last VC, the
/// opportunistic Up/Down escape subnetwork. Transition rules:
///  1. A packet on CRout requests the neighbours returned by the base
///     routing, on its CRout VCs, at the base routing's penalties.
///  2. Every packet — on CRout or CEsc — additionally requests its escape
///     candidates on CEsc, at the (high) escape penalties.
///  Moves from CEsc back to CRout are forbidden.
/// A "forced hop" happens when rule 1 yields no candidate (e.g. all
/// Omnidimensional next links are faulty): the packet can still advance
/// through the escape, which is what makes SurePath fault-tolerant, and
/// why it needs only 2 VCs to be correct and spends the rest on
/// performance.
class RoutingMechanism {
 public:
  /// A hop-indexed ladder over every VC, \p rung_vcs (1 or 2) wide.
  /// \p display is the paper's mechanism name (e.g. "OmniWAR" for
  /// Omnidimensional + 1-step ladder).
  static RoutingMechanism ladder(std::unique_ptr<RouteAlgorithm> algo,
                                 int rung_vcs, std::string display);

  /// SurePath over \p algo's routes with CRout discipline \p policy.
  /// \p display is the paper's name ("OmniSP", "PolSP"). The escape
  /// subnetwork is found through the NetworkContext.
  static RoutingMechanism surepath(std::unique_ptr<RouteAlgorithm> algo,
                                   std::string display, CRoutVcPolicy policy);

  /// Display name matching the paper ("Minimal", "OmniSP", ...).
  std::string name() const { return display_; }

  /// Appends (port, vc, penalty) candidates for head packet \p p at switch
  /// \p sw, using \p scratch for intermediate buffers (cleared here; the
  /// caller only provides the storage): the base ports over the packet's
  /// routing VCs, port-major and VC-ascending, then (SurePath) the escape
  /// candidates on the last VC. Not called at the destination switch
  /// (router ejects). Safe to call concurrently as long as each call uses
  /// a distinct \p scratch.
  void candidates(const NetworkContext& ctx, const Packet& p, SwitchId sw,
                  RouteScratch& scratch, std::vector<Candidate>& out) const;

  /// Legal injection VCs for a fresh packet (server side): the routing
  /// VCs of a packet with no hops taken.
  VcRange injection_vcs(const NetworkContext& ctx) const {
    return routing_vcs(ctx, 0, 0);
  }

  /// Forwards to the algorithm's on_inject.
  void on_inject(const NetworkContext& ctx, Packet& p, Rng& rng) const {
    algo_->on_inject(ctx, p, rng);
  }

  /// Forwards to the algorithm's on_arrival.
  void on_arrival(const NetworkContext& ctx, Packet& p, SwitchId sw) const {
    algo_->on_arrival(ctx, p, sw);
  }

  /// Called at grant time for switch-to-switch hops: updates the hop
  /// count, the current VC and the algorithm's or escape's header state.
  void commit_hop(const NetworkContext& ctx, Packet& p, SwitchId from,
                  const Candidate& cand) const;

  /// True when this mechanism needs the Up/Down escape subnetwork.
  bool needs_escape() const { return escape_; }

  /// Fewest VCs the mechanism runs on: one rung, plus the escape VC.
  int min_vcs() const { return rung_vcs_ + (escape_ ? 1 : 0); }

  /// The policy Auto resolves to for a given context.
  CRoutVcPolicy resolved_policy(const NetworkContext& ctx) const;

 private:
  RoutingMechanism(std::unique_ptr<RouteAlgorithm> algo, std::string display,
                   CRoutVcPolicy policy, int rung_vcs, bool escape);

  /// Routing VCs for a packet with \p hops hops taken that occupies
  /// \p cur_vc: the policy applied over every VC but the escape one.
  VcRange routing_vcs(const NetworkContext& ctx, int hops, Vc cur_vc) const;

  std::unique_ptr<RouteAlgorithm> algo_;
  std::string display_;
  CRoutVcPolicy policy_;
  int rung_vcs_;
  bool escape_;
};

} // namespace hxsp
