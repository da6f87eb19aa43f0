#pragma once
/// \file server.hpp
/// A compute endpoint: generates traffic into a finite injection queue and
/// feeds its switch through a 1 phit/cycle injection link.
///
/// Generation is a Bernoulli process at the offered load (probability
/// load/packet_length of creating a packet each cycle). When the injection
/// queue is full the attempt is lost — this backpressure is what makes the
/// per-server *generated* load diverge under adversarial patterns, which
/// the paper's Jain index measures. A completion mode instead preloads a
/// fixed number of packets per server and injects them as fast as the
/// queue drains (paper Fig 10). A third, message-queue mode serves the
/// workload subsystem (src/workload/): the server holds a FIFO of
/// released Messages and injects the current head's packets as the queue
/// drains; messages enter the FIFO only through WorkloadRun's dependency
/// release, and the mode draws nothing from the shared RNG stream.
///
/// A Server object holds no heap storage of its own: its injection queue
/// is a ring of the Network's server slab, its injection credits live in
/// the Network's per-(server, VC) array, and the released-message FIFO
/// allocates only once a message is released to it. At a million servers
/// per Network, per-server heap blocks would cost hundreds of megabytes.

#include <cstdint>

#include "sim/config.hpp"
#include "sim/packet.hpp"
#include "util/ringbuf.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"
#include "util/vecfifo.hpp"

namespace hxsp {

class Network;

/// One server attached to a switch.
class Server {
 public:
  Server(ServerId id, SwitchId sw, int local, const SimConfig& cfg);

  /// Bernoulli generation (rate mode) or queue refill (completion mode).
  /// Inline fast path: this runs for every server every cycle — and in
  /// rate mode must draw from \p rng every cycle to keep the global RNG
  /// stream identical — so the common "no packet this cycle" case is a
  /// couple of loads and one draw with no function call.
  void generation_phase(Network& net, Cycle now, Rng& rng) {
    if (remaining_ >= 0) {
      completion_refill(net, now);
      return;
    }
    if (remaining_ == kWorkloadMode) {
      // Message-queue mode: refill only when a message is in progress or
      // released work is waiting, so idle servers stay O(1) per cycle.
      if (wl_left_ != 0 || !wl_ready_.empty()) workload_refill(net, now);
      return;
    }
    if (inject_prob_ <= 0.0 || !rng.next_bool(inject_prob_)) return;
    // A generation attempt against a full queue is lost: this
    // backpressure is what the Jain index of generated load measures.
    if (queue_.size < queue_capacity_) make_packet(net, now);
  }

  /// Moves the queue head onto the injection link when possible.
  void injection_phase(Network& net, Cycle now);

  /// True when injection_phase would do more than immediately return —
  /// the per-cycle gate that lets the network skip idle servers.
  bool injection_ready(Cycle now) const {
    return !queue_.empty() && link_free_at_ <= now;
  }

  /// Sets the offered load in phits/cycle (rate mode).
  void set_offered_load(double load, int packet_length);

  /// Switches to completion mode with \p packets to send in total.
  void set_completion(long packets);

  /// Switches to workload (message-queue) mode: packets come only from
  /// released Messages (see workload/run.hpp), never from the Bernoulli
  /// process — the shared RNG stream is untouched by this server.
  void set_workload();

  /// WorkloadRun released message \p m (this server is its source); it
  /// joins the injection FIFO behind earlier releases.
  void workload_push(std::int32_t m) { wl_ready_.push_back(m); }

  /// Fixes the router input port this server injects into (first server
  /// port of its switch + local index). Called once by the Network
  /// constructor, because the port base depends on the switch's topology
  /// degree, which the Server constructor cannot see; caching it saves a
  /// router lookup per injected packet.
  void set_inject_port(Port p) { inject_port_ = p; }

  /// Packets still waiting in the injection queue.
  int queued() const { return queue_.size; }

  /// Packets not yet generated in completion mode (0 in rate mode).
  long remaining() const { return remaining_ < 0 ? 0 : remaining_; }

  /// Released messages not yet started (workload mode), front = next.
  const VecFifo<std::int32_t>& released_messages() const { return wl_ready_; }

  // --- auditor accessors (sim/audit.cpp) ----------------------------------

  /// True in completion mode (a fixed per-server packet budget).
  bool in_completion_mode() const { return remaining_ >= 0; }

  ServerId id() const { return id_; }
  SwitchId switch_id() const { return switch_; }
  int local_index() const { return local_; }

 private:
  /// remaining_ sentinel selecting the workload message-queue mode
  /// (>= 0 is completion mode, -1 rate mode).
  static constexpr long kWorkloadMode = -2;

  void make_packet(Network& net, Cycle now);

  /// Appends \p pkt to this server's ring of the network's server slab.
  void enqueue(Network& net, PacketPtr pkt);

  /// Completion-mode branch of generation_phase (out of line: runs a
  /// refill loop and touches Network bookkeeping).
  void completion_refill(Network& net, Cycle now);

  /// Workload-mode branch of generation_phase: injects packets of the
  /// current head message while the queue has room, advancing through
  /// the released-message FIFO.
  void workload_refill(Network& net, Cycle now);

  // Hot fields first: the per-cycle generation/injection gates read only
  // this leading cache line.
  long remaining_ = -1;      ///< mode selector + completion budget (see above)
  double inject_prob_ = 0.0; ///< packets per cycle (Bernoulli)
  Cycle link_free_at_ = 0;
  Port inject_port_ = kInvalid; ///< router input port (set_inject_port)
  int queue_capacity_;
  RingSlab<PacketPtr>::Ring queue_; ///< ring id_ of Network::server_queues()
  ServerId id_;
  SwitchId switch_;
  int local_; ///< index among the servers of this switch
  // Workload mode: current message + packets of it still to generate,
  // and the FIFO of released-but-not-started messages.
  std::int32_t wl_msg_ = kInvalid;
  int wl_left_ = 0;
  VecFifo<std::int32_t> wl_ready_;
};

// Byte budget: a Network holds one Server per endpoint — 1,048,576 at the
// million-server scale — so every byte here costs a megabyte there.
static_assert(sizeof(Server) <= 88, "Server grew past its per-endpoint budget");

} // namespace hxsp
