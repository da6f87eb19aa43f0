#pragma once
/// \file run.hpp
/// MessageSource — the engine's message-mode callback interface — and its
/// two single-fabric implementations: WorkloadRun, the per-job message
/// state machine, and CompletionSource, the paper's completion
/// experiment (Fig 10).
///
/// A WorkloadRun binds one built Message list to one Network for one
/// simulation: tracks per-message dependency counts and remaining
/// packets, releases a message into its source server's ready queue the
/// moment its last dependency completes (a completion callback chain
/// riding the engine's Consume events), and records the completion cycle
/// of every message and phase. Servers in message mode
/// (Server::set_message_mode) pull released messages FIFO and inject
/// their packets as fast as the injection queue drains; every consumed
/// packet is attributed back to its message through the `msg` id it
/// carries.
///
/// Two extensions serve the multi-tenant scheduler (src/tenant/):
///  - bind(): restricts a run to a concrete subset of servers. The
///    Message list stays *logical* (src/dst in [0, demand)); the binding
///    maps logical ids to fabric server ids at release/refill time, so a
///    job built for n servers runs unchanged on any n-server placement
///    and non-member servers see none of it (and draw zero RNG).
///  - set_msg_base(): offsets the message ids carried by packets, so
///    several concurrently-running jobs share one global id space and a
///    scheduler-level MessageSource can route consumptions back to the
///    owning run.
///
/// All hooks run on the simulation thread at deterministic points
/// (event processing, generation phase), so a message-mode run is
/// exactly as reproducible as a rate-mode run.

#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"
#include "workload/workload.hpp"

namespace hxsp {

class Network;
class TrafficPattern;

/// The engine's view of message mode. Implemented by WorkloadRun (one job
/// spanning the fabric), CompletionSource (a fixed packet count per
/// server) and TenantScheduler (many placed jobs sharing the fabric).
/// Message ids are *global*: whatever id space the attached source hands
/// out via server ready queues is what packets carry and what these hooks
/// receive back.
class MessageSource {
 public:
  virtual ~MessageSource() = default;

  /// Destination server of the next packet of message \p m, asked once
  /// per packet as the server builds it. \p rng is the network's stream;
  /// a source with fixed destinations draws nothing from it.
  virtual ServerId msg_dst(std::int32_t m, Rng& rng) const = 0;

  /// A server starts message \p m (called once per message); returns its
  /// packet count.
  virtual int start_message(std::int32_t m) = 0;

  /// Packets the source added to the network's outstanding budget whose
  /// messages no server has started yet. The auditor checks the budget
  /// against this plus every server's packets left.
  virtual long unstarted_packets() const = 0;

  /// One packet of message \p m was consumed at its destination at cycle
  /// \p now. May release further messages and extend the network's
  /// outstanding-packet budget (admissions).
  virtual void on_packet_consumed(std::int32_t m, Cycle now, Network& net) = 0;
};

/// Mean, median and 99th percentile of message latencies (0 when none).
struct LatencySummary {
  double mean = 0;
  Cycle p50 = 0;  ///< sorted[n/2]
  Cycle p99 = 0;  ///< sorted[floor(0.99 (n-1))]
};

class WorkloadRun : public MessageSource {
 public:
  /// \p msgs must be validated (validate_workload) against the server
  /// count it will run on — the fabric size when unbound, the binding
  /// size otherwise.
  explicit WorkloadRun(std::vector<Message> msgs);

  /// Restricts the run to concrete servers: logical server i of the
  /// Message list becomes fabric server \p servers[i]. Call before
  /// start()/launch(). An empty binding (the default) is the identity
  /// over the whole fabric.
  void bind(std::vector<ServerId> servers);

  /// Offsets the global message ids this run hands to the engine: logical
  /// message m rides packets as base + m. Call before start()/launch().
  void set_msg_base(std::int32_t base) { msg_base_ = base; }

  /// Puts every server of \p net into message mode, attaches this run
  /// to the network, and releases all dependency-free messages (in
  /// message order) at the network's current cycle. Call once. The
  /// single-job entry point — a scheduler-managed run uses launch().
  void start(Network& net);

  /// Scheduler-managed start: releases the dependency-free messages and
  /// adds this run's packet budget to the network's outstanding count,
  /// without touching server modes or the network's source attachment
  /// (the TenantScheduler owns both). Call once, at the admission cycle.
  void launch(Network& net);

  // --- engine hooks (MessageSource) ----------------------------------------

  ServerId msg_dst(std::int32_t m, Rng&) const override {
    const Message& msg = msgs_[static_cast<std::size_t>(m - msg_base_)];
    return binding_.empty() ? msg.dst
                            : binding_[static_cast<std::size_t>(msg.dst)];
  }
  int start_message(std::int32_t m) override {
    const int packets = msgs_[static_cast<std::size_t>(m - msg_base_)].packets;
    unstarted_ -= packets;
    return packets;
  }
  long unstarted_packets() const override { return unstarted_; }

  /// Completes the message when \p m's last packet is consumed, which may
  /// complete its phase and release dependent messages into their source
  /// servers' ready queues.
  void on_packet_consumed(std::int32_t m, Cycle now, Network& net) override;

  // --- results -------------------------------------------------------------

  std::size_t num_messages() const { return msgs_.size(); }
  long total_packets() const { return total_packets_; }
  bool complete() const { return completed_count_ == msgs_.size(); }

  /// Cycle the last message of each phase completed (-1: not finished).
  const std::vector<Cycle>& phase_done() const { return phase_done_; }

  /// Latencies (release -> last packet consumed) of the messages that
  /// completed, in completion order.
  const std::vector<Cycle>& completed_latencies() const { return latencies_; }

  /// Summary of completed_latencies().
  LatencySummary latency_summary() const;

 private:
  void release(std::int32_t m, Cycle now, Network& net);
  void release_roots(Network& net);

  std::vector<Message> msgs_;
  std::vector<ServerId> binding_;            ///< logical -> fabric server ids
  std::vector<std::int32_t> pending_deps_;   ///< unmet deps per message
  std::vector<std::vector<std::int32_t>> dependents_;
  std::vector<std::int32_t> remaining_;      ///< packets to consume
  std::vector<Cycle> released_;              ///< -1 until released
  std::vector<std::int32_t> phase_outstanding_;
  std::vector<Cycle> phase_done_;
  std::vector<Cycle> latencies_;
  std::size_t completed_count_ = 0;
  long total_packets_ = 0;
  long unstarted_ = 0;  ///< launched packets of messages not yet started
  std::int32_t msg_base_ = 0;
  bool started_ = false;
};

/// The paper's completion experiment (Fig 10) as a message source: every
/// server sends the same number of packets, each to a destination drawn
/// from the network's traffic pattern. Server v gets one message, with
/// id v. Each destination is drawn from the network's stream as the
/// server builds the packet, the same draw at the same point as a
/// rate-mode packet.
class CompletionSource final : public MessageSource {
 public:
  explicit CompletionSource(long packets_per_server);

  /// Puts every server of \p net into message mode with this source
  /// attached, and releases message v to server v. Call once.
  void start(Network& net);

  ServerId msg_dst(std::int32_t m, Rng& rng) const override;
  int start_message(std::int32_t) override {
    unstarted_ -= packets_;
    return packets_;
  }
  long unstarted_packets() const override { return unstarted_; }
  void on_packet_consumed(std::int32_t, Cycle, Network&) override {}

 private:
  int packets_;
  long unstarted_ = 0;
  const TrafficPattern* traffic_ = nullptr;  ///< the network's, from start()
};

} // namespace hxsp
