#pragma once
/// \file network.hpp
/// The simulation engine: owns routers, servers, the event wheel, metrics
/// and the cycle loop.
///
/// One step() = process due events, run server generation/injection, run
/// the allocation phase of every router with buffered input packets, then
/// the link phase of every router with waiting output packets. Each router
/// phase scans the routers in id order and skips the idle ones; a skipped
/// router would have drawn no randomness and scheduled no events, so the
/// cycle-by-cycle behaviour (RNG stream, event order, every output byte)
/// is identical to stepping everything. Every event delay is bounded by
/// the packet, crossbar and link latencies, so a 64-slot calendar wheel
/// suffices (the constructor rejects configs that would exceed it). A
/// watchdog aborts the run if packets are in flight but nothing has moved
/// for SimConfig::watchdog_cycles — the tripwire behind our
/// deadlock-freedom claims.
///
/// Instruments: consumptions, packet latency and hop kinds are counted
/// once, cumulatively from cycle 0, in metrics(); per-link phits, also
/// from cycle 0, by the sending Router in its link phase, which may run
/// on the step pool (Router::link_phits is router-local). Nothing resets
/// them: the measurement window and every telemetry frame are differences
/// between snapshots of those counts.

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "metrics/stats.hpp"
#include "metrics/timeseries.hpp"
#include "routing/mechanism.hpp"
#include "sim/config.hpp"
#include "sim/router.hpp"
#include "sim/server.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "traffic/pattern.hpp"
#include "util/check.hpp"
#include "util/ringbuf.hpp"
#include "util/rng.hpp"

namespace hxsp {

class ThreadPool;    // util/thread_pool.hpp
class MessageSource; // workload/run.hpp
struct TelemetryCapture; // telemetry/capture.hpp

/// A deferred simulator action (credit return, tail departure, delivery).
///
/// Every event is one id, a port and a VC: a consumed packet stays in the
/// packet slab until its Consume fires, so the event carries only its
/// handle. Eight bytes put a 64-item wheel-slot chunk in 8 cache lines
/// of events, which the slot scan in process_events walks linearly every
/// cycle. port/vc are stored narrow — ports are bounded by switch degree
/// + servers per switch (hundreds), VCs by the allocator's 32-VC
/// feasibility mask — and widen back to Port/Vc implicitly at use sites.
struct Event {
  enum class Kind : std::uint8_t {
    CreditRouter, ///< a = router, port/vc: one packet's credit
                  ///< (packet_length phits) for an output VC
    CreditServer, ///< a = server, vc: one packet's credit for the
                  ///< injection buffer
    OutTailGone,  ///< a = router, port/vc: tail left the output buffer
    Consume       ///< a = the packet's PacketHandle, vc = eject vc (port
                  ///< unused: the packet's destination server names it)
  };
  std::int32_t a = 0;
  std::int16_t port = 0;
  std::int8_t vc = 0;
  Kind kind = Kind::CreditRouter;

  Event() = default;
  Event(Kind k, Vc v, Port p, std::int32_t a_)
      : a(a_), port(static_cast<std::int16_t>(p)),
        vc(static_cast<std::int8_t>(v)), kind(k) {
    HXSP_DCHECK(p >= 0 && p <= INT16_MAX);
    HXSP_DCHECK(v >= 0 && v <= INT8_MAX);
  }
};
// Byte budget: the wheel holds two events per router hop in flight.
static_assert(sizeof(Event) == 8, "Event grew past 8 bytes");

/// Per-phase wall-time accumulator for Network::step (see
/// Network::attach_phase_times). The clock is injected as a plain
/// function pointer by the profiling caller (the traced rep in
/// benchmark/hxsp_bench.cpp) so no wall-clock read lives inside src/sim —
/// the determinism lint stays clean and the engine's behaviour cannot
/// depend on time. Seconds accumulate across every step while attached.
struct StepPhaseTimes {
  using ClockFn = double (*)();

  // det-lint: allow(wall-clock) — no clock is *read* here: the caller
  // injects the function and the engine only accumulates its deltas into
  // fields no simulation decision ever reads.
  explicit StepPhaseTimes(ClockFn clock_fn) : clock(clock_fn) { // det-lint: allow(wall-clock)
    HXSP_CHECK(clock_fn != nullptr);
  }

  ClockFn clock;
  double events = 0.0;     ///< process_events (wheel slot application)
  double generation = 0.0; ///< server generation + injection
  double alloc = 0.0;      ///< allocation (candidates, requests, grants)
  double link = 0.0;       ///< link phase (collect + commit)

  double total() const { return events + generation + alloc + link; }
};

/// A complete simulated network bound to one routing mechanism and one
/// traffic pattern. Topology, distance tables and the escape subnetwork
/// are owned by the caller (see harness/experiment.hpp) and referenced
/// through the NetworkContext.
class Network {
 public:
  /// \p servers_per_switch servers are attached to every switch. The
  /// context, mechanism and traffic objects must outlive the Network.
  Network(const NetworkContext& ctx, RoutingMechanism& mech,
          TrafficPattern& traffic, const SimConfig& cfg,
          int servers_per_switch, std::uint64_t seed);

  // Routers hold the address of packets_, so a Network stays in place.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- experiment control -------------------------------------------------

  /// Sets the offered load (phits/cycle/server) for every server.
  void set_offered_load(double load);

  /// Message mode: every server injects only packets of messages
  /// released by \p source, which stays attached for the rest of the
  /// simulation. Called by the sources' start (WorkloadRun,
  /// CompletionSource, TenantScheduler).
  void enter_message_mode(MessageSource* source);

  /// The attached message source (null in rate mode).
  MessageSource* message_source() { return source_; }

  /// Advances the simulation \p n cycles.
  void run_cycles(Cycle n);

  /// Runs until no packet is left in the fabric or the server queues and
  /// no server holds released message work, or \p max_cycles elapse;
  /// returns true when fully drained.
  bool run_until_drained(Cycle max_cycles);

  /// Opens the metrics measurement window at the current cycle. Every
  /// counter keeps counting from cycle 0 (SimMetrics' tally, each
  /// Router::link_phits()); a window is the difference of two readings.
  void begin_window() { metrics_.begin_window(now_); }

  /// Closes the metrics measurement window at the current cycle.
  void end_window() { metrics_.end_window(now_); }

  /// Optional sink for a consumed-phits time series (Fig 10). May be null.
  void attach_timeseries(TimeSeries* ts) { timeseries_ = ts; }

  // --- telemetry (src/telemetry/, all knobs off by default) ---------------

  /// The windowed instrument registry, or null when
  /// SimConfig::telemetry_window == 0. Hook sites in the serial step
  /// phases gate on this pointer — one compare when telemetry is off.
  TelemetryRegistry* telemetry() { return telemetry_.get(); }

  /// The sampled packet tracer, or null when SimConfig::trace_sample == 0.
  PacketTracer* tracer() { return tracer_.get(); }

  /// Copies the run's telemetry frames, per-router/per-link/per-VC
  /// counters and sampled trace hops into \p out (overwriting it),
  /// closing a partial tail window first. Reads engine state only —
  /// calling it cannot change subsequent simulation behaviour.
  void export_telemetry(TelemetryCapture& out);

  // --- queries -------------------------------------------------------------

  Cycle now() const { return now_; }
  SimMetrics& metrics() { return metrics_; }
  const SimMetrics& metrics() const { return metrics_; }
  /// Packets generated and not yet consumed or dropped.
  long packets_in_system() const { return packets_.live(); }
  ServerId num_servers() const { return static_cast<ServerId>(servers_.size()); }
  int servers_per_switch() const { return servers_per_switch_; }

  // --- component plumbing (used by Router/Server) ---------------------------

  const NetworkContext& ctx() const { return ctx_; }
  const SimConfig& cfg() const { return cfg_; }
  Rng& rng() { return rng_; }
  RoutingMechanism& mechanism() { return mech_; }
  const RoutingMechanism& mechanism() const { return mech_; }
  TrafficPattern& traffic() { return traffic_; }
  Router& router(SwitchId s) { return routers_[static_cast<std::size_t>(s)]; }
  const Router& router(SwitchId s) const {
    return routers_[static_cast<std::size_t>(s)];
  }
  Server& server(ServerId v) { return servers_[static_cast<std::size_t>(v)]; }

  /// Every packet in flight; queues and events hold handles into it.
  PacketSlab& packets() { return packets_; }

  /// Every server's injection queue: server v's queue is ring v.
  RingSlab<PacketHandle>& server_queues() { return server_queues_; }

  /// Server \p v's injection credits: free phits of its switch's
  /// server-port input buffer, one int per VC.
  int* server_credits(ServerId v) {
    return &server_credits_[static_cast<std::size_t>(v) *
                            static_cast<std::size_t>(cfg_.num_vcs)];
  }

  /// Schedules \p ev for cycle \p when (must be < 64 cycles ahead; the
  /// constructor rejects configs whose delays could exceed that).
  /// Inline: several events fire per packet transfer.
  void schedule(Cycle when, const Event& ev) {
    HXSP_DCHECK(when > now_ && when < now_ + kWheelSize);
    wheel_[static_cast<std::size_t>(when & (kWheelSize - 1))].push_back(ev);
  }

  /// Hands a packet to a router input buffer (runs the arrival hook).
  void deliver(PacketHandle pkt, SwitchId sw, Port port, Vc vc, Cycle head,
               Cycle tail);

  /// Consumes \p pkt at cycle \p when; returns the eject credit afterwards.
  void consume_at(PacketHandle pkt, Cycle when, Vc vc);

  /// Registers packet movement (resets the watchdog).
  void note_progress() { last_progress_ = now_; }

  /// Unique id source for packets.
  std::int64_t next_packet_id() { return ++packet_ids_; }

  // --- dynamic fault support ----------------------------------------------

  /// Must be called after link \p failed was removed from the graph and
  /// the distance/escape tables were rebuilt (the paper's BFS-on-failure
  /// recovery, §1/§3). Packets already queued for the dead link are lost
  /// (counted in dropped_packets()); every cached routing decision is
  /// invalidated so the new tables take effect immediately.
  void on_link_failed(LinkId failed);

  /// Packets lost to runtime link failures so far.
  long dropped_packets() const { return dropped_packets_; }

  // --- deterministic intra-run parallel stepping ---------------------------

  /// Attaches a worker pool for the link phase of step(), the one phase
  /// that fans out. Each worker takes a contiguous ascending range of the
  /// routers with link work and pops their transmissions into its own
  /// LinkStage (router-local mutations only, including each router's
  /// link_phits() counters); the serial commit applies deliveries and
  /// wheel events in concatenation order, which equals (source router id,
  /// ordinal) order. Serial stepping is the one-stage case of the same
  /// collect/commit, so the two cannot drift apart, and output is
  /// bit-identical at every pool size.
  ///
  /// Event application, generation and allocation (routing included) run
  /// on the thread that steps the Network. Pass nullptr to return to fully
  /// serial stepping. The pool is borrowed, not owned, and must outlive
  /// the Network (or be detached first).
  void set_step_pool(ThreadPool* pool);

  /// Attaches a per-phase wall-time accumulator (see StepPhaseTimes in
  /// this header); null detaches. When attached, step() brackets its four
  /// phases with pt->clock() calls — the clock is injected by the caller
  /// so the engine itself never reads a wall clock (determinism lint).
  /// Profiling never alters simulation behaviour, only measures it.
  void attach_phase_times(StepPhaseTimes* pt) { phase_times_ = pt; }

  // --- invariant auditor (sim/audit.cpp) ----------------------------------

  /// Recomputes every incrementally maintained engine structure from
  /// scratch — per-router allocator score sums, feasibility masks, active
  /// input lists, per-VC qs against queues and pending tails, packet
  /// conservation, and per-link credit conservation (wheel events
  /// included) — and HXSP_CHECKs each against the maintained copy. Runs
  /// every SimConfig::audit_interval cycles when that is > 0; callable
  /// directly any time (tests, tools). Mutates nothing: turning auditing
  /// on cannot change simulation output, only convert silent
  /// incremental-state drift into a loud abort.
  void run_audit() const;

  /// Test-only: allocates a packet that no buffer, queue or event holds,
  /// the conservation drift the auditor must catch. Never used by the
  /// engine.
  PacketHandle leak_packet_for_test() { return packets_.alloc(); }

 private:
  void step();
  void process_events();

  /// Applies one Consume event (metrics, time series, workload callback,
  /// eject credit one cycle ahead) and frees its packet.
  void handle_consume(const Event& ev);

  /// Serial commit of the link phase: replays every staged transmission
  /// (wheel events, delivery/consumption, watchdog progress) in (source
  /// router id, ordinal) order. The only place a transmission leaves a
  /// router.
  void commit_link_stages();

  NetworkContext ctx_;
  RoutingMechanism& mech_;
  TrafficPattern& traffic_;
  SimConfig cfg_;
  int servers_per_switch_;
  Rng rng_;

  PacketSlab packets_; ///< before routers_, which point to it
  // deque: built one element at a time without relocating earlier ones.
  std::deque<Router> routers_;
  std::deque<Server> servers_;
  // Server-side storage kept outside the Server objects (see server.hpp).
  RingSlab<PacketHandle> server_queues_;
  std::vector<int> server_credits_; ///< [server][vc]

  // Ids of the routers with link work this cycle, ascending (filled by a
  // scan in step(); the step pool partitions it).
  std::vector<SwitchId> phase_scratch_;

  static constexpr int kWheelBits = 6;
  static constexpr int kWheelSize = 1 << kWheelBits; ///< 64-cycle horizon
  // The chunk pool is declared before the wheel so slots can return their
  // chunks during destruction; all 64 slots share it, so wheel memory
  // tracks peak in-flight events, not 64 per-slot high-water marks.
  ChunkPool<Event> event_chunks_;
  std::vector<PooledRing<Event>> wheel_;

  SimMetrics metrics_;
  /// Telemetry instruments (telemetry/): allocated in the constructor only
  /// when the matching SimConfig knob is non-zero, so every hook site in
  /// the step paths costs a single null compare when observability is off.
  std::unique_ptr<TelemetryRegistry> telemetry_;
  std::unique_ptr<PacketTracer> tracer_;
  std::unique_ptr<FlightRecorder> flight_;
  TimeSeries* timeseries_ = nullptr;
  MessageSource* source_ = nullptr;
  ThreadPool* step_pool_ = nullptr; ///< borrowed; null = serial stepping
  StepPhaseTimes* phase_times_ = nullptr; ///< borrowed; null = no profiling

  /// Staging buffers of the link phase: one per pool worker, or one when
  /// stepping serially (never empty; all drained outside the link phase —
  /// audited).
  std::vector<LinkStage> link_stages_ = std::vector<LinkStage>(1);

  Cycle now_ = 0;
  Cycle last_progress_ = 0;
  /// Next cycle the invariant auditor fires (max() when auditing is off),
  /// so the per-step cost of the disabled auditor is one compare.
  Cycle next_audit_ = 0;
  /// Next cycle the telemetry window rolls (max() when telemetry is off) —
  /// the same one-compare gate as the auditor.
  Cycle next_telemetry_ = 0;
  long dropped_packets_ = 0;
  std::int64_t packet_ids_ = 0;
};

} // namespace hxsp
