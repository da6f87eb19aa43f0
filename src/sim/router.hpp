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
/// Allocation (paper §3): each eligible head packet computes its candidate
/// set once (cached while it waits), scores every flow-control-feasible
/// candidate with Q + P where
///     qs = output occupancy + consumed credits of the requested queue,
///     Q  = qs + sum of qs' over all queues of the requested port,
/// and makes a single request to the minimum; ties break randomly. Each
/// output port then grants the best request it received this cycle. The
/// per-port sum of qs is maintained incrementally (OutputPort::score_sum,
/// updated at the four mutation sites: grant commit, tail departure,
/// credit return, dead-link drop), so scoring one candidate is O(1)
/// instead of O(num_vcs) — it is the innermost arithmetic of the engine,
/// evaluated per candidate per active head per cycle.
///
/// All packet queues are bounded by flow control, so each router carves
/// its queues out of two fixed slabs (util/ringbuf.hpp): one RingSlab for
/// every input VC and one for every output VC, each queue a 4-byte Ring
/// header in its InputVc/OutputVc. Candidate caches live in slots that
/// travel with the active input list, and requests in one per-router
/// buffer, so a router's state is a dozen flat arrays however many ports
/// and VCs it has — no heap block per (port, VC).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "routing/mechanism.hpp"
#include "sim/config.hpp"
#include "sim/packet.hpp"
#include "util/ringbuf.hpp"
#include "util/types.hpp"

namespace hxsp {

class Network;

/// Per-(input port, VC) buffer state. The queued packets live in the
/// router's input slab, in the ring with this VC's [port][vc] index.
struct InputVc {
  RingSlab<PacketPtr>::Ring q;   ///< waiting packets; front = head
  int occupancy = 0;             ///< phits of reserved space
  Cycle drain_until = 0;         ///< when the in-progress drain completes
                                 ///< (valid whenever draining; kept for
                                 ///< exact gate reconstruction)
  int active_pos = -1;           ///< index in Router::active_, -1 = not listed
  bool draining = false;         ///< head transfer in progress
};

/// Per-(output port, VC) buffer state plus the credit counter for the
/// downstream input buffer this queue feeds. Stored flattened
/// ([port][vc], like InputVc) so the allocator's per-candidate probe is
/// one computed address instead of a pointer chase through a per-port
/// vector. The queued packets live in the router's output slab.
struct OutputVc {
  RingSlab<PacketPtr>::Ring q; ///< packets heading for the link; front = next
  int occupancy = 0;        ///< phits reserved (grant) until tail departs
  int credits = 0;          ///< free phits in the downstream input buffer
};

// Byte budgets: a router holds one InputVc and one OutputVc per
// (port, VC) — 8.2 million of each in the million-server configuration
// (32,768 routers x 125 ports x 2 VCs) — so a stray field here costs tens
// of megabytes there.
static_assert(sizeof(InputVc) <= 24, "InputVc grew past its per-VC budget");
static_assert(sizeof(OutputVc) <= 12, "OutputVc grew past its per-VC budget");
static_assert(sizeof(PacketPtr) == sizeof(Packet*),
              "PacketPtr must stay one pointer: every slab slot holds one, "
              "~27M slots on million_min, so a stateful deleter costs "
              "~200 MB there");

/// Cached candidate set of one buffered input head. A router keeps one
/// slot per entry of its active input list, at the same position, so
/// only heads that are actually buffered hold candidate storage.
struct CandSlot {
  std::vector<Candidate> cand; ///< candidate set of the head
  std::int64_t head_id = -1;   ///< Packet::id of the head it was computed for
  int num_routing = 0;         ///< non-escape entries in `cand`
  bool valid = false;          ///< computed for the current head
};

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
/// (wheel events, delivery/consumption). The packet is owned by the stage
/// between collect and commit.
struct StagedTx {
  PacketPtr pkt;
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
  Router(SwitchId id, int num_switch_ports, int num_server_ports,
         const SimConfig& cfg);

  /// Total ports (switch + server).
  int num_ports() const { return static_cast<int>(outputs_.size()); }

  /// First server (ejection) port.
  Port first_server_port() const { return num_switch_ports_; }

  /// This switch's id.
  SwitchId id() const { return id_; }

  /// Enqueues a packet into input (port, vc); \p head/\p tail are the
  /// arrival cycles of its first and last phit.
  void push_input(PacketPtr pkt, Port port, Vc vc, Cycle head, Cycle tail);

  /// Computes (and caches) the candidate set of every eligible head that
  /// does not have one, without posting requests or drawing RNG — the
  /// parallelizable prefix of alloc_phase. Safe to run concurrently for
  /// different routers: it reads only shared-immutable state (topology,
  /// distances, escape tables) and writes only this router's own buffers.
  /// alloc_phase finds the work already done and computes nothing; running
  /// this for any subset of routers therefore cannot change behaviour.
  void precompute_candidates(const Network& net, Cycle now);

  /// Allocation phase: requests + grants for this cycle.
  void alloc_phase(Network& net, Cycle now);

  /// Link phase: starts output-port transmissions. Performs the
  /// router-local half (pop the granted head, refresh out-head caches and
  /// waiting counts, stamp link_free_at, advance round-robin, count the
  /// phits sent on switch ports) and stages each popped packet into
  /// \p out; the network-visible half (wheel events, delivery or
  /// consumption) is Network::commit_link_stages. RNG-free and confined
  /// to this router, so it is safe to run concurrently for disjoint
  /// routers.
  void link_phase(const SimConfig& cfg, Cycle now, LinkStage& out);

  // --- event handlers -----------------------------------------------------

  /// The head packet of input (port,vc) finished leaving through the
  /// crossbar: free its space and stop blocking the next packet.
  void input_drain_done(Network& net, Port port, Vc vc);

  /// A packet's tail (\p phits long) left output (port,vc) over the link.
  /// Inline: fires once per transmitted packet via the event wheel.
  void output_tail_gone(Port port, Vc vc, int phits) {
    OutputVc& ov = output_vc_mut(port, vc);
    ov.occupancy -= phits;
    outputs_[static_cast<std::size_t>(port)].score_sum -= phits;
    out_qs_[vc_index(port, vc)] -= phits;
    update_feasible(port, vc);
    HXSP_DCHECK(ov.occupancy >= 0);
  }

  /// Credit arrived from the downstream buffer of output (port,vc).
  /// Inline: fires once per forwarded packet via the event wheel.
  void credit_return(Port port, Vc vc, int phits) {
    output_vc_mut(port, vc).credits += phits;
    outputs_[static_cast<std::size_t>(port)].score_sum -= phits; // consumed shrank
    out_qs_[vc_index(port, vc)] -= phits;
    update_feasible(port, vc);
  }

  /// Phits sent on switch port \p p since the last clear_link_phits():
  /// the one per-link load counter. It is written only by this router's
  /// link_phase, so pooled link phases stay race-free.
  std::int64_t link_phits(Port p) const {
    return link_phits_[static_cast<std::size_t>(p)];
  }

  /// Zeroes the link_phits() counters (Network::begin_window).
  void clear_link_phits() {
    std::fill(link_phits_.begin(), link_phits_.end(), 0);
  }

  /// True while this router has any buffered input packet (the routers
  /// Network::step runs the alloc phase of).
  bool has_input_work() const { return !active_.empty(); }

  /// True while any output VC holds a packet awaiting its link (the
  /// routers Network::step runs the link phase of).
  bool has_link_work() const { return waiting_total_ > 0; }

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
  const OutputPort& output(Port p) const {
    return outputs_[static_cast<std::size_t>(p)];
  }

  /// Total packets buffered in this router (inputs + outputs).
  int buffered_packets() const;

  /// Auditor (sim/audit.cpp): recomputes every incrementally maintained
  /// router structure from first principles — per-VC qs and per-port score
  /// sums, feasibility masks, out-head caches, waiting counts, the active
  /// input list and its back-pointers, head gates — and aborts on drift.
  /// Debug builds also run it every 1024 cycles (Network::step).
  /// Wheel-dependent ledgers (in-flight credits, pending tail
  /// departures) are cross-checked by Network::run_audit.
  void audit_local(const SimConfig& cfg) const;

  /// Test-only mutable state access, for injecting incremental-state
  /// corruption that the auditor must catch. Never used by the engine.
  OutputPort& corrupt_output_for_test(Port p) {
    return outputs_[static_cast<std::size_t>(p)];
  }
  int& corrupt_out_qs_for_test(Port p, Vc v) { return out_qs_[vc_index(p, v)]; }
  Cycle& corrupt_out_head_for_test(Port p, Vc v) {
    return out_head_[vc_index(p, v)];
  }
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
    return *in_q_.front(idx, inputs_[idx].q);
  }
  const Packet& out_front(std::size_t idx) const {
    return *out_q_.front(idx, out_vcs_[idx].q);
  }

  /// Recomputes output (p,v)'s bit of OutputPort::feasible_mask from its
  /// credit and occupancy state. Called at every mutation site.
  void update_feasible(Port p, Vc v) {
    const OutputVc& ov = out_vcs_[vc_index(p, v)];
    const std::uint32_t bit = 1u << static_cast<unsigned>(v);
    OutputPort& op = outputs_[static_cast<std::size_t>(p)];
    if (ov.credits >= len_ && ov.occupancy + len_ <= outbuf_cap_)
      op.feasible_mask |= bit;
    else
      op.feasible_mask &= ~bit;
  }

  /// Adds (port,vc) to the active list if absent.
  void mark_active(Port p, Vc v);

  /// Removes (port,vc) from the active list.
  void unmark_active(Port p, Vc v);

  /// Q term of the paper's allocation rule for output (port,vc).
  int queue_score(Port port, Vc vc) const;

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
  int waiting_total_ = 0;           ///< sum of OutputPort::waiting
  std::vector<InputVc> inputs_;     ///< [port][vc] flattened
  std::vector<OutputVc> out_vcs_;   ///< [port][vc] flattened
  RingSlab<PacketPtr> in_q_;        ///< input queues, ring = [port][vc]
  RingSlab<PacketPtr> out_q_;       ///< output queues, ring = [port][vc]
  std::vector<OutputPort> outputs_; ///< [port]
  /// Incrementally maintained qs = occupancy + consumed credits per
  /// output (port,vc), flattened like out_vcs_. The request loop reads
  /// only this and OutputPort, never the (colder) OutputVc structs.
  std::vector<int> out_qs_;
  /// buf_head of each output queue's front packet, or kNeverReady when
  /// the queue is empty — flattened like out_vcs_, so the link phase's
  /// round-robin scan reads one compact line per port and never touches
  /// packets or ring buffers until it actually transmits.
  std::vector<Cycle> out_head_;
  static constexpr Cycle kNeverReady = std::numeric_limits<Cycle>::max();
  std::vector<Cycle> in_xbar_free_; ///< per input port
  std::vector<std::int64_t> link_phits_; ///< per switch port, see link_phits()
  std::vector<std::int32_t> active_; ///< encoded (port*V+vc) of non-empty inputs
  /// cand_slots_[i] caches the candidates of active_[i]'s head. Slots
  /// travel with their entry when a swap-remove moves it; slots past
  /// active_.size() are spares (always invalid) kept for their storage.
  std::vector<CandSlot> cand_slots_;
  /// Head gate per input (port,vc): the earliest cycle the current head
  /// could possibly post a request — the max of its known lower bounds
  /// (head phit arrival, drain completion, the input port's crossbar
  /// release, and the output-side park time from a fruitless scan; +inf
  /// while the head has no legal candidate at all). Every bound has an
  /// exactly-known expiry or is refreshed at its mutation site, so the
  /// request loop's whole eligibility chain is one compare against a
  /// compact array — and skipped heads are exactly the heads that could
  /// not have posted a request (they draw no RNG, so skipping preserves
  /// bit-identical behaviour).
  std::vector<Cycle> in_gate_;

  /// Sorted ports with waiting > 0 (so the link phase visits only ports
  /// that can possibly transmit, in the same ascending order as a full
  /// scan), plus the snapshot iterated while transmissions mutate it.
  std::vector<Port> link_ports_;
  std::vector<Port> link_scratch_;

  /// A request posted to an output port during the current cycle.
  struct Request {
    std::int32_t in_enc = -1; ///< encoded input (port*V+vc)
    std::int32_t next = -1;   ///< next request to the same output, -1 = last
    Vc out_vc = -1;
    int score = 0;            ///< Q + P
    bool escape = false;
    bool forced = false;
    bool escape_down = false; ///< strict-phase escape Down step
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
  RouteScratch scratch_; ///< per-router routing scratch (thread safety of
                         ///< the parallel candidate phase rests on this)
};

} // namespace hxsp
