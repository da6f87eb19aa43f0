#pragma once
/// \file router.hpp
/// Cycle-level input-queued router with virtual channels, virtual
/// cut-through flow control and the paper's Q+P single-request allocation.
///
/// Microarchitecture (paper Table 2):
///  * per-(port,VC) input FIFOs of 8 packets, credit-based backpressure;
///  * per-(port,VC) output FIFOs of 4 packets;
///  * crossbar with internal speedup 2 (a port moves up to 2 phits/cycle
///    internally) and 1 cycle of latency;
///  * links of 1 phit/cycle with 1 cycle of latency.
///
/// Virtual cut-through at packet granularity: each packet carries the
/// arrival cycles of its head and tail phits in the current buffer; it may
/// be allocated as soon as its head has arrived, transfers never outrun
/// the incoming phit stream (the drain-completion time takes a max with
/// the tail arrival), and credits are reserved whole-packet as classic
/// conservative VCT does.
///
/// Allocation (paper §3): a buffered head is eligible in a cycle when its
/// head phit has arrived, the previous packet has drained out of its
/// buffer and its input port's crossbar is free. The request loop reads
/// those three facts where they are stored (Router::head_eligible) and
/// keeps no copy of them. Each eligible head computes its candidate set
/// once (cached while it waits) — one 8-byte entry per output port with
/// the VC range it may use there — and scores every flow-control-feasible
/// (port, VC) pair the entries cover with Q + P where
///     qs = output occupancy + consumed credits of the requested queue,
///     Q  = qs + sum of qs' over all queues of the requested port,
/// and makes a single request to the minimum; ties break randomly. The scan
/// tests each entry's crossbar once and ANDs the port's feasibility mask
/// with the entry's VC range once, then scores the surviving VCs in
/// ascending order. Each output port then grants the best request it
/// received this cycle. The
/// per-port sum of qs is maintained incrementally (OutputPort::score_sum,
/// updated at the four mutation sites: grant commit, tail departure,
/// credit return, dead-link drop), so scoring one candidate is O(1)
/// instead of O(num_vcs) — it is the innermost arithmetic of the engine,
/// evaluated per candidate per active head per cycle.
///
/// Each fact is stored once. A VC's occupancy is derived, not counted: an
/// output VC's is its qs less its consumed credits, an input VC's one
/// packet per queued packet plus one while the last grant's drain runs
/// (InputVc::drain_until past now). That grant also schedules the drained
/// space's credit upstream, so nothing fires when the drain ends.
///
/// All packet queues are bounded by flow control, so each router carves
/// its queues out of two fixed slabs (util/ringbuf.hpp): one RingSlab for
/// every input VC and one for every output VC, each queue a 4-byte Ring
/// header in its InputVc/OutputVc and each slot a 4-byte PacketHandle into
/// the Network's packet slab. Candidate caches live in slots that travel
/// with the active input list, and requests in one per-router buffer, so
/// a router's state is a dozen flat arrays however many ports and VCs it
/// has — no heap block per (port, VC).

#include <cstdint>
#include <vector>

#include "routing/mechanism.hpp"
#include "sim/config.hpp"
#include "sim/packet.hpp"
#include "util/ringbuf.hpp"
#include "util/types.hpp"

namespace hxsp {

class Network;

/// Per-(input port, VC) buffer state. The queued packets live in the
/// router's input slab, in the ring with this VC's [port][vc] index. Its
/// reserved space is derived, not stored: see Router::input_occupancy.
/// Widest field first, so the struct packs into 16 B.
struct InputVc {
  Cycle drain_until = 0;         ///< cycle the last granted packet's tail
                                 ///< has left the buffer; a drain is in
                                 ///< progress while it lies past now
  RingSlab<PacketHandle>::Ring q; ///< waiting packets; front = head
  int active_pos = -1;           ///< index in Router::active_, -1 = not listed
};

/// Per-(output port, VC) buffer state plus the credit counter for the
/// downstream input buffer this queue feeds. Stored flattened
/// ([port][vc], like InputVc) so the allocator's per-candidate probe is
/// one computed address instead of a pointer chase through a per-port
/// vector. The queued packets live in the router's output slab. Its
/// occupancy (phits reserved from grant until the tail departs) is
/// derived, not stored: qs minus consumed credits (Router::out_occupancy).
struct OutputVc {
  RingSlab<PacketHandle>::Ring q; ///< packets heading for the link; front = next
  int credits = 0;          ///< free phits in the downstream input buffer
};

// Byte budgets: a router holds one InputVc and one OutputVc per
// (port, VC) — 8.2 million of each in the million-server configuration
// (32,768 routers x 125 ports x 2 VCs) — so a stray field here costs tens
// of megabytes there.
static_assert(sizeof(InputVc) <= 16, "InputVc grew past its per-VC budget");
static_assert(sizeof(OutputVc) <= 8, "OutputVc grew past its per-VC budget");
static_assert(sizeof(PacketHandle) == 4,
              "a queue slot is one 4-byte handle: ~27M slots on "
              "million_min, so each extra byte per slot costs ~27 MB there");

/// Cached candidate set of one buffered input head. A router keeps one
/// slot per entry of its active input list, at the same position, so
/// only heads that are actually buffered hold candidate storage.
struct CandSlot {
  std::vector<Candidate> cand; ///< candidate set of the head, one per port
  std::int64_t head_id = -1;   ///< Packet::id of the head it was computed for
  bool valid = false;          ///< computed for the current head
};
// No inline candidate array: million_min keeps a slot per active input of
// each of its 32,768 routers.
static_assert(sizeof(CandSlot) <= 40, "CandSlot grew past its budget");

/// Per-output-port state shared by its VCs (kept small: the link phase
/// scans these sequentially every active cycle, and the allocator's
/// request loop probes one per candidate).
struct OutputPort {
  Cycle link_free_at = 0;   ///< next cycle the outgoing link can start
  Cycle xbar_free_at = 0;   ///< next cycle the crossbar may grant to it
  int rr_next = 0;          ///< round-robin pointer for link scheduling
  int waiting = 0;          ///< packets queued across this port's VCs
  int score_sum = 0;        ///< running sum of (occupancy + consumed
                            ///< credits) over this port's VCs — the paper's
                            ///< per-port Q term, maintained incrementally
  std::uint32_t feasible_mask = 0; ///< bit v: VC v has the credits and the
                                   ///< buffer space for one whole packet
                                   ///< (virtual cut-through feasibility),
                                   ///< updated wherever either input moves
};

/// One transmission popped by the link phase, awaiting its serial commit
/// (wheel events, delivery/consumption). The packet is held by the stage
/// between collect and commit.
struct StagedTx {
  PacketHandle pkt = 0;
  SwitchId src = kInvalid;
  Port port = 0;
  Vc vc = 0;
};

/// Staging buffer of the link phase: one for a serial step, one per worker
/// with a step pool. Each stage covers a contiguous ascending range of the
/// link-busy routers and is appended in iteration order, so concatenating
/// the stages in order reproduces the (source router id, ordinal) order of
/// a router-by-router loop exactly — no sort, no timestamps.
using LinkStage = std::vector<StagedTx>;

/// One switch of the network.
class Router {
 public:
  /// \p num_switch_ports = topology degree (dead ports included);
  /// \p num_server_ports = servers attached to this switch.
  /// \p packets is the owning Network's packet slab, which every handle
  /// queued here names; it must outlive the router.
  Router(SwitchId id, int num_switch_ports, int num_server_ports,
         const SimConfig& cfg, PacketSlab& packets);

  /// Total ports (switch + server).
  int num_ports() const { return static_cast<int>(outputs_.size()); }

  /// First server (ejection) port.
  Port first_server_port() const { return num_switch_ports_; }

  /// This switch's id.
  SwitchId id() const { return id_; }

  /// Enqueues a packet into input (port, vc); \p head/\p tail are the
  /// arrival cycles of its first and last phit.
  void push_input(PacketHandle pkt, Port port, Vc vc, Cycle head, Cycle tail);

  /// Computes (and caches) the candidate set of every eligible head that
  /// does not have one, without posting requests or drawing RNG — the
  /// parallelizable prefix of alloc_phase. Safe to run concurrently for
  /// different routers: it reads only shared-immutable state (topology,
  /// distances, escape tables) and writes only this router's own candidate
  /// slots (the mechanism's candidates() touches nothing but the list it
  /// appends to).
  /// alloc_phase finds the work already done and computes nothing; running
  /// this for any subset of routers therefore cannot change behaviour.
  void precompute_candidates(const Network& net, Cycle now);

  /// Allocation phase: requests + grants for this cycle.
  void alloc_phase(Network& net, Cycle now);

  /// Link phase: starts output-port transmissions. Performs the
  /// router-local half (pop the granted head, update waiting counts,
  /// stamp link_free_at, advance round-robin, count the phits sent on
  /// switch ports) and stages each popped packet into
  /// \p out; the network-visible half (wheel events, delivery or
  /// consumption) is Network::commit_link_stages. RNG-free and confined
  /// to this router, so it is safe to run concurrently for disjoint
  /// routers.
  void link_phase(const SimConfig& cfg, Cycle now, LinkStage& out);

  // --- event handlers -----------------------------------------------------

  /// A packet's tail left output (port,vc) over the link.
  /// Inline: fires once per transmitted packet via the event wheel.
  void output_tail_gone(Port port, Vc vc) {
    outputs_[static_cast<std::size_t>(port)].score_sum -= len_;
    out_qs_[vc_index(port, vc)] -= len_;
    update_feasible(port, vc);
    HXSP_DCHECK(out_occupancy(vc_index(port, vc)) >= 0);
  }

  /// One packet's credit arrived from the downstream buffer of output
  /// (port,vc). Inline: fires once per forwarded packet via the event wheel.
  void credit_return(Port port, Vc vc) {
    output_vc_mut(port, vc).credits += len_;
    outputs_[static_cast<std::size_t>(port)].score_sum -= len_; // consumed shrank
    out_qs_[vc_index(port, vc)] -= len_;
    update_feasible(port, vc);
  }

  /// Phits sent on switch port \p p since cycle 0: the one per-link load
  /// counter, cumulative like SimMetrics' tally (a window's load is the
  /// difference of two readings). It is written only by this router's
  /// link_phase, so pooled link phases stay race-free.
  std::int64_t link_phits(Port p) const {
    return link_phits_[static_cast<std::size_t>(p)];
  }

  /// True while this router has any buffered input packet (the routers
  /// Network::step runs the alloc phase of).
  bool has_input_work() const { return !active_.empty(); }

  /// True while any output VC holds a packet awaiting its link (the
  /// routers Network::step runs the link phase of).
  bool has_link_work() const { return !link_ports_.empty(); }

  // --- dynamic fault support ----------------------------------------------

  /// Invalidates every cached candidate set and resets the strict-phase
  /// escape bit of every buffered packet. Called by the network when the
  /// topology (and therefore the routing tables) changed at runtime.
  void on_tables_rebuilt();

  /// Drops every packet still queued in the output buffers of \p port
  /// (they were heading over a link that just died and can no longer be
  /// transmitted). Frees their buffer reservation and returns their
  /// credits. Returns the number of packets lost.
  int drop_output_queue(Network& net, Port port);

  // --- accessors for tests / diagnostics ----------------------------------

  const InputVc& input(Port p, Vc v) const {
    return inputs_[static_cast<std::size_t>(vc_index(p, v))];
  }
  /// Phits of input (p,v)'s buffer reserved at cycle \p now by its queued
  /// packets and by a packet still draining out of it.
  int input_occupancy(Port p, Vc v, Cycle now) const {
    const InputVc& iv = input(p, v);
    return len_ * (iv.q.size + (iv.drain_until > now ? 1 : 0));
  }
  const OutputPort& output(Port p) const {
    return outputs_[static_cast<std::size_t>(p)];
  }

  /// Total packets buffered in this router (inputs + outputs).
  int buffered_packets() const;

  /// Auditor (sim/audit.cpp): recomputes every incrementally maintained
  /// router structure from first principles — per-port score sums,
  /// feasibility masks, waiting counts, the active input list and its
  /// back-pointers, candidate slots — and aborts on drift.
  /// \p now is the current cycle (for the input buffer bounds). Debug
  /// builds also run it every 1024 cycles (Network::step).
  /// Wheel-dependent ledgers (in-flight credits, pending tail
  /// departures) are cross-checked by Network::run_audit.
  void audit_local(const SimConfig& cfg, Cycle now) const;

  /// Test-only mutable state access, for injecting incremental-state
  /// corruption that the auditor must catch. Never used by the engine.
  OutputPort& corrupt_output_for_test(Port p) {
    return outputs_[static_cast<std::size_t>(p)];
  }
  int& corrupt_out_qs_for_test(Port p, Vc v) { return out_qs_[vc_index(p, v)]; }
  /// Candidate slot of the \p pos-th active input (needs has_input_work()).
  CandSlot& corrupt_cand_slot_for_test(int pos) {
    return cand_slots_[static_cast<std::size_t>(pos)];
  }

 private:
  friend class Network;

  std::size_t vc_index(Port p, Vc v) const {
    return static_cast<std::size_t>(p) * static_cast<std::size_t>(num_vcs_) +
           static_cast<std::size_t>(v);
  }

  InputVc& input_mut(Port p, Vc v) { return inputs_[vc_index(p, v)]; }
  OutputVc& output_vc_mut(Port p, Vc v) { return out_vcs_[vc_index(p, v)]; }

  /// Head packet of the input / output queue with flat index \p idx.
  const Packet& in_front(std::size_t idx) const {
    return (*packets_)[in_q_.front(idx, inputs_[idx].q)];
  }
  const Packet& out_front(std::size_t idx) const {
    return (*packets_)[out_q_.front(idx, out_vcs_[idx].q)];
  }

  /// Phits of output queue \p idx reserved from grant until the tail
  /// departs: its qs less the credits it has consumed.
  int out_occupancy(std::size_t idx) const {
    return out_qs_[idx] - (base_credits_ - out_vcs_[idx].credits);
  }

  /// Recomputes output (p,v)'s bit of OutputPort::feasible_mask from its
  /// credit and occupancy state. Called at every mutation site.
  void update_feasible(Port p, Vc v) {
    const std::size_t idx = vc_index(p, v);
    const std::uint32_t bit = 1u << static_cast<unsigned>(v);
    OutputPort& op = outputs_[static_cast<std::size_t>(p)];
    if (out_vcs_[idx].credits >= len_ &&
        out_occupancy(idx) + len_ <= outbuf_cap_)
      op.feasible_mask |= bit;
    else
      op.feasible_mask &= ~bit;
  }

  /// True when the head of non-empty input \p idx may post a request at
  /// \p now (paper §3): the previous packet has drained out of its
  /// buffer, its input port's crossbar is free, and its head phit has
  /// arrived. The packet is read last: it is the one cold load.
  bool head_eligible(std::size_t idx, Cycle now) const {
    return inputs_[idx].drain_until <= now &&
           in_xbar_free_[idx / static_cast<std::size_t>(num_vcs_)] <= now &&
           in_front(idx).buf_head <= now;
  }

  /// Adds (port,vc) to the active list if absent.
  void mark_active(Port p, Vc v);

  /// Removes (port,vc) from the active list.
  void unmark_active(Port p, Vc v);

  /// Fills \p slot with the candidate set of \p head (the shared body of
  /// alloc_phase and precompute_candidates).
  void compute_candidates(const Network& net, const Packet& head,
                          CandSlot& slot);

  SwitchId id_;
  int num_switch_ports_;
  int num_vcs_;
  int len_ = 0;                     ///< SimConfig::packet_length
  int outbuf_cap_ = 0;              ///< SimConfig::output_buffer_phits()
  int base_credits_ = 0;            ///< downstream input capacity, phits
                                    ///< (for the consumed-credit Q term)
  PacketSlab* packets_;             ///< the Network's, see the constructor
  std::vector<InputVc> inputs_;     ///< [port][vc] flattened
  std::vector<OutputVc> out_vcs_;   ///< [port][vc] flattened
  RingSlab<PacketHandle> in_q_;     ///< input queues, ring = [port][vc]
  RingSlab<PacketHandle> out_q_;    ///< output queues, ring = [port][vc]
  std::vector<OutputPort> outputs_; ///< [port]
  /// Incrementally maintained qs = occupancy + consumed credits per
  /// output (port,vc), flattened like out_vcs_. The request loop reads
  /// only this and OutputPort, never the (colder) OutputVc structs.
  std::vector<int> out_qs_;
  std::vector<Cycle> in_xbar_free_; ///< per input port
  std::vector<std::int64_t> link_phits_; ///< per switch port, see link_phits()
  std::vector<std::int32_t> active_; ///< encoded (port*V+vc) of non-empty inputs
  /// cand_slots_[i] caches the candidates of active_[i]'s head. Slots
  /// travel with their entry when a swap-remove moves it; slots past
  /// active_.size() are spares (always invalid) kept for their storage.
  std::vector<CandSlot> cand_slots_;

  /// Sorted ports with waiting > 0 (so the link phase visits only ports
  /// that can possibly transmit, in the same ascending order as a full
  /// scan), plus the snapshot iterated while transmissions mutate it.
  std::vector<Port> link_ports_;
  std::vector<Port> link_scratch_;

  /// A request posted to an output port during the current cycle.
  struct Request {
    std::int32_t in_enc = -1; ///< encoded input (port*V+vc)
    std::int32_t next = -1;   ///< next request to the same output, -1 = last
    int score = 0;            ///< Q + P
    Candidate cand;           ///< the scanned entry (port, escape flags)
    Vc out_vc = -1;           ///< the VC chosen within cand's range
    bool forced = false;      ///< escape hop with no routing candidate
  };
  /// First and last request of one output port's chain in requests_.
  struct RequestChain {
    std::int32_t first = -1;
    std::int32_t last = -1;
  };
  std::vector<Request> requests_;        ///< this cycle's, in posting order
  std::vector<RequestChain> req_chains_; ///< per output port
  std::vector<Port> dirty_outputs_;      ///< outputs with requests, in
                                         ///< first-request order
};

} // namespace hxsp
