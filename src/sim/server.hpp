#pragma once
/// \file server.hpp
/// A compute endpoint: generates traffic into a finite injection queue and
/// feeds its switch through a 1 phit/cycle injection link.
///
/// A server runs in one of two modes:
///  - Rate mode: generation is a Bernoulli process at the offered load
///    (probability load/packet_length of creating a packet each cycle),
///    destinations come from the traffic pattern. When the injection
///    queue is full the attempt is lost — this backpressure is what makes
///    the per-server *generated* load diverge under adversarial patterns,
///    which the paper's Jain index measures.
///  - Message mode: the server holds a FIFO of released messages and
///    injects the current head's packets as fast as the queue drains,
///    asking the network's MessageSource (workload/run.hpp) for each
///    packet's destination. Messages enter the FIFO only by release from
///    that source. It serves the paper's completion experiment (Fig 10,
///    CompletionSource) as well as the workload and multi-tenant runs.
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

  /// Bernoulli generation (rate mode) or message refill (message mode).
  /// Inline fast path: this runs for every server every cycle — and in
  /// rate mode must draw from \p rng every cycle to keep the global RNG
  /// stream identical — so the common "no packet this cycle" case is a
  /// couple of loads and one draw with no function call.
  void generation_phase(Network& net, Cycle now, Rng& rng) {
    if (inject_prob_ > 0.0) {
      // A generation attempt against a full queue is lost: this
      // backpressure is what the Jain index of generated load measures.
      if (rng.next_bool(inject_prob_) && queue_.size < queue_capacity_)
        make_packet(net, now, kInvalid);
      return;
    }
    // Message mode (inject_prob_ is 0): refill only when a message is in
    // progress or released work is waiting, so idle servers stay O(1)
    // per cycle.
    if (holds_message_work()) message_refill(net, now);
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

  /// Switches to message mode: packets come only from messages released
  /// to this server (push_message), never from the Bernoulli process.
  void set_message_mode();

  /// The network's MessageSource released message \p m (this server is
  /// its source); it joins the injection FIFO behind earlier releases.
  void push_message(std::int32_t m) { ready_.push_back(m); }

  /// Packets still waiting in the injection queue.
  int queued() const { return queue_.size; }

  /// True while this server holds a released message or packets of its
  /// current message it has not generated yet (message mode).
  bool holds_message_work() const { return msg_left_ != 0 || !ready_.empty(); }

  /// Released messages not yet started (message mode), front = next.
  const VecFifo<std::int32_t>& released_messages() const { return ready_; }

  ServerId id() const { return id_; }
  SwitchId switch_id() const { return switch_; }
  int local_index() const { return local_; }

 private:
  /// Builds one packet of message \p msg and queues it. Its destination
  /// comes from the traffic pattern when \p msg is kInvalid (rate mode),
  /// from the network's MessageSource otherwise.
  void make_packet(Network& net, Cycle now, std::int32_t msg);

  /// Appends \p pkt to this server's ring of the network's server slab.
  void enqueue(Network& net, PacketPtr pkt);

  /// Message-mode branch of generation_phase: injects packets of the
  /// current message while the queue has room, starting the next released
  /// message whenever the current one is done.
  void message_refill(Network& net, Cycle now);

  // Hot fields first: the per-cycle generation/injection gates read only
  // this leading cache line.
  double inject_prob_ = 0.0; ///< packets per cycle (0 in message mode)
  Cycle link_free_at_ = 0;
  int queue_capacity_;
  RingSlab<PacketPtr>::Ring queue_; ///< ring id_ of Network::server_queues()
  ServerId id_;
  SwitchId switch_;
  int local_; ///< index among the servers of this switch
  // Message mode: current message + packets of it still to generate,
  // and the FIFO of released-but-not-started messages.
  std::int32_t msg_ = kInvalid;
  int msg_left_ = 0;
  VecFifo<std::int32_t> ready_;
};

// Byte budget: a Network holds one Server per endpoint — 1,048,576 at the
// million-server scale — so every byte here costs a megabyte there.
static_assert(sizeof(Server) <= 80, "Server grew past its per-endpoint budget");

} // namespace hxsp
