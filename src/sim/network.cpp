#include "sim/network.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <string>

#include "telemetry/capture.hpp"
#include "util/thread_pool.hpp"
#include "workload/run.hpp"

namespace hxsp {

Network::Network(const NetworkContext& ctx, RoutingMechanism& mech,
                 TrafficPattern& traffic, const SimConfig& cfg,
                 int servers_per_switch, std::uint64_t seed)
    : ctx_(ctx), mech_(mech), traffic_(traffic), cfg_(cfg),
      servers_per_switch_(servers_per_switch), rng_(seed),
      wheel_(kWheelSize) {
  HXSP_CHECK(ctx_.graph != nullptr && ctx_.dist != nullptr);
  HXSP_CHECK(ctx_.num_vcs == cfg_.num_vcs);
  HXSP_CHECK(ctx_.packet_length == cfg_.packet_length);
  HXSP_CHECK_MSG(!mech_.needs_escape() || ctx_.escape != nullptr,
                 "mechanism requires an escape subnetwork in the context");
  HXSP_CHECK(servers_per_switch_ >= 1);
  // Config validation. Manifests may set any sim field, and a delay the
  // 64-slot wheel cannot hold would wrap into an earlier slot and corrupt
  // the run silently, so each field is named in its own check.
  HXSP_CHECK_MSG(cfg_.packet_length >= 1, "sim.packet_length must be >= 1");
  HXSP_CHECK_MSG(cfg_.xbar_speedup >= 1, "sim.xbar_speedup must be >= 1");
  HXSP_CHECK_MSG(cfg_.num_vcs >= 1, "sim.num_vcs must be >= 1");
  // Fewer VCs than one rung (plus SurePath's escape VC) would clamp the
  // rung below VC 0 or leave no legal injection VC.
  HXSP_CHECK_MSG(cfg_.num_vcs >= mech_.min_vcs(),
                 ("sim.num_vcs = " + std::to_string(cfg_.num_vcs) + " but " +
                  mech_.name() + " needs >= " + std::to_string(mech_.min_vcs()))
                     .c_str());
  HXSP_CHECK_MSG(cfg_.input_buffer_packets >= 1,
                 "sim.input_buffer_packets must be >= 1");
  HXSP_CHECK_MSG(cfg_.output_buffer_packets >= 1,
                 "sim.output_buffer_packets must be >= 1");
  HXSP_CHECK_MSG(cfg_.server_queue_packets >= 1,
                 "sim.server_queue_packets must be >= 1");
  // The scheduled delays: OutTailGone after packet_length cycles (which
  // also bounds InDrainDone), Consume after link_latency + packet_length
  // - 1. Credits are always one cycle ahead.
  HXSP_CHECK_MSG(cfg_.packet_length < kWheelSize,
                 "sim.packet_length must be < 64 (event wheel horizon)");
  HXSP_CHECK_MSG(cfg_.link_latency >= 0, "sim.link_latency must be >= 0");
  const int consume_delay = cfg_.link_latency + cfg_.packet_length - 1;
  HXSP_CHECK_MSG(consume_delay >= 1 && consume_delay < kWheelSize,
                 "sim.link_latency + sim.packet_length - 1 must lie in 1..63 "
                 "(event wheel horizon)");

  for (auto& slot : wheel_) slot.attach(&event_chunks_);

  const SwitchId n = ctx_.graph->num_switches();
  for (SwitchId s = 0; s < n; ++s)
    routers_.emplace_back(s, ctx_.graph->degree(s), servers_per_switch_, cfg_);

  const ServerId total = static_cast<ServerId>(n) * servers_per_switch_;
  server_queues_.reset(static_cast<std::size_t>(total),
                       cfg_.server_queue_packets);
  server_credits_.assign(static_cast<std::size_t>(total) *
                             static_cast<std::size_t>(cfg_.num_vcs),
                         cfg_.input_buffer_phits());
  for (ServerId v = 0; v < total; ++v) {
    const SwitchId sw = static_cast<SwitchId>(v / servers_per_switch_);
    const int local = static_cast<int>(v % servers_per_switch_);
    servers_.emplace_back(v, sw, local, cfg_);
    servers_.back().set_inject_port(
        routers_[static_cast<std::size_t>(sw)].first_server_port() +
        static_cast<Port>(local));
  }

  metrics_.configure(total, cfg_.packet_length);

  HXSP_CHECK(cfg_.audit_interval >= 0);
  next_audit_ = cfg_.audit_interval > 0 ? cfg_.audit_interval
                                        : std::numeric_limits<Cycle>::max();

  // Observability (src/telemetry/): each instrument exists only when its
  // knob is on, so the hook sites in the step paths cost one null compare
  // in the default configuration.
  HXSP_CHECK(cfg_.telemetry_window >= 0 && cfg_.trace_sample >= 0 &&
             cfg_.flight_recorder >= 0);
  if (cfg_.telemetry_window > 0)
    telemetry_ = std::make_unique<TelemetryRegistry>(
        *ctx_.graph, cfg_.telemetry_window, cfg_.num_vcs);
  next_telemetry_ = cfg_.telemetry_window > 0
                        ? cfg_.telemetry_window
                        : std::numeric_limits<Cycle>::max();
  if (cfg_.trace_sample > 0)
    tracer_ = std::make_unique<PacketTracer>(cfg_.trace_sample);
  if (cfg_.flight_recorder > 0)
    flight_ = std::make_unique<FlightRecorder>(
        cfg_.flight_recorder, seed,
        std::vector<std::string>{"InDrainDone", "CreditRouter",
                                 "CreditServer", "OutTailGone", "Consume"});
}

void Network::set_offered_load(double load) {
  for (auto& s : servers_) s.set_offered_load(load, cfg_.packet_length);
}

void Network::enter_message_mode(MessageSource* source, long outstanding) {
  HXSP_CHECK(source != nullptr && outstanding >= 0);
  for (auto& s : servers_) s.set_message_mode();
  source_ = source;
  outstanding_ = outstanding;
}

void Network::begin_window() {
  metrics_.begin_window(now_);
  // Re-base telemetry's per-link snapshot before the counters restart, so
  // its open frame keeps the phits sent earlier in that frame.
  if (telemetry_) telemetry_->rebase_links(*this);
  for (Router& r : routers_) r.clear_link_phits();
}

void Network::handle_consume(const Event& ev, PooledRing<Event>& next) {
  const ServerId dst = ev.a;
  metrics_.on_consumed(dst, ev.aux, now_);
  if (timeseries_) timeseries_->add(now_, cfg_.packet_length);
  if (telemetry_) telemetry_->on_eject(dst / servers_per_switch_);
  on_packet_destroyed();
  note_progress();
  // Message mode: attribute the consumption to its message, which may
  // complete it and release dependent messages (the completion callback
  // chain feeding the next phase).
  if (ev.msg >= 0) source_->on_packet_consumed(ev.msg, now_, *this);
  // Return the eject credit to the router's server port (the port was
  // resolved when the Consume event was scheduled, see consume_at).
  const SwitchId sw = dst / servers_per_switch_;
  next.push_back({Event::Kind::CreditRouter, ev.vc, ev.port, sw,
                  cfg_.packet_length});
}

void Network::process_events() {
  PooledRing<Event>& slot =
      wheel_[static_cast<std::size_t>(now_ & (kWheelSize - 1))];
  if (slot.empty()) return;
  // Every credit this slot emits lands exactly one cycle ahead, so the
  // destination slot is resolved once and pushed into directly — the
  // coalesced form of the per-event schedule(now_ + 1, ...) calls. The
  // next slot is distinct from the current one (wheel size > 1), so
  // pushing while scanning is safe.
  PooledRing<Event>& next =
      wheel_[static_cast<std::size_t>((now_ + 1) & (kWheelSize - 1))];
  slot.for_each([&](const Event& ev) {
    // Flight recorder: remember the event just before applying it, so the
    // ring order is the application order.
    if (flight_)
      flight_->record(now_, static_cast<std::uint8_t>(ev.kind), ev.a, ev.port,
                      ev.vc, ev.aux,
                      ev.kind != Event::Kind::CreditServer &&
                          ev.kind != Event::Kind::Consume);
    switch (ev.kind) {
      case Event::Kind::InDrainDone: {
        Router& r = routers_[static_cast<std::size_t>(ev.a)];
        r.input_drain_done(*this, ev.port, ev.vc);
        // Return the freed space upstream, one cycle of credit latency.
        if (ev.port < r.first_server_port()) {
          const PortInfo& pi = ctx_.graph->port(ev.a, ev.port);
          next.push_back({Event::Kind::CreditRouter, ev.vc, pi.remote_port,
                          pi.neighbor, cfg_.packet_length});
        } else {
          const ServerId srv =
              static_cast<ServerId>(ev.a) * servers_per_switch_ +
              (ev.port - r.first_server_port());
          next.push_back({Event::Kind::CreditServer, ev.vc, 0, srv,
                          cfg_.packet_length});
        }
        break;
      }
      case Event::Kind::CreditRouter:
        routers_[static_cast<std::size_t>(ev.a)].credit_return(
            ev.port, ev.vc, static_cast<int>(ev.aux));
        break;
      case Event::Kind::CreditServer:
        server_credits(ev.a)[ev.vc] += static_cast<int>(ev.aux);
        break;
      case Event::Kind::OutTailGone:
        routers_[static_cast<std::size_t>(ev.a)].output_tail_gone(
            ev.port, ev.vc, cfg_.packet_length);
        break;
      case Event::Kind::Consume:
        handle_consume(ev, next);
        break;
    }
  });
  slot.clear();
}

void Network::deliver(PacketPtr pkt, SwitchId sw, Port port, Vc vc, Cycle head,
                      Cycle tail) {
  mech_.on_arrival(ctx_, *pkt, sw);
  if (tracer_) tracer_->record(TraceEvent::kArrive, head, pkt->id, sw, port, vc);
  routers_[static_cast<std::size_t>(sw)].push_input(std::move(pkt), port, vc,
                                                    head, tail);
  if (telemetry_)
    telemetry_->on_occupancy(
        sw, routers_[static_cast<std::size_t>(sw)].input(port, vc).occupancy);
}

void Network::consume_at(PacketPtr pkt, Cycle when, Vc vc) {
  HXSP_DCHECK(pkt->dst_switch ==
              static_cast<SwitchId>(pkt->dst_server / servers_per_switch_));
  // The eject-credit port is resolved here, where the destination switch
  // is already at hand, instead of re-deriving it (modulo + router
  // lookup) when the Consume event fires.
  const Port eject =
      routers_[static_cast<std::size_t>(pkt->dst_switch)].first_server_port() +
      static_cast<Port>(pkt->dst_server % servers_per_switch_);
  // Trace here rather than in handle_consume: the Consume event does not
  // carry the packet id. `when` is the cycle the tail phit is consumed.
  if (tracer_)
    tracer_->record(TraceEvent::kEject, when, pkt->id, pkt->dst_switch, eject,
                    vc);
  schedule(when, {Event::Kind::Consume, vc, eject, pkt->dst_server,
                  pkt->created, pkt->msg});
  // The packet object dies here; the Consume event carries what remains.
}

void Network::set_step_pool(ThreadPool* pool) {
  step_pool_ = pool;
  link_stages_.clear();
  link_stages_.resize(
      pool != nullptr ? static_cast<std::size_t>(pool->size()) : 1);
}

template <typename Fn>
void Network::fan_out(const Fn& fn) {
  // Contiguous ascending ranges, one per worker: concatenating the
  // workers' outputs in worker order is the serial (router id) order.
  const std::size_t n = phase_scratch_.size();
  const std::size_t workers = static_cast<std::size_t>(step_pool_->size());
  const std::size_t per = (n + workers - 1) / workers;
  for (std::size_t w = 0; w * per < n; ++w) {
    const std::size_t lo = w * per;
    const std::size_t hi = std::min(lo + per, n);
    step_pool_->submit([&fn, w, lo, hi] { fn(w, lo, hi); });
  }
  step_pool_->wait_idle();
}

void Network::commit_link_stages() {
  const int len = cfg_.packet_length;
  const Cycle head = now_ + cfg_.link_latency;
  const Cycle tail = head + len - 1;
#ifndef NDEBUG
  SwitchId prev_src = -1;
#endif
  for (LinkStage& stage : link_stages_) {
    for (StagedTx& t : stage) {
#ifndef NDEBUG
      // Contiguous ascending partitions + in-order emission: the
      // concatenation is sorted by source router id, i.e. the order a
      // router-by-router link loop would transmit in.
      HXSP_CHECK(t.src >= prev_src);
      prev_src = t.src;
#endif
      schedule(now_ + len, {Event::Kind::OutTailGone, t.vc, t.port, t.src, 0});
      if (t.port <
          routers_[static_cast<std::size_t>(t.src)].first_server_port()) {
        const PortInfo& pi = ctx_.graph->port(t.src, t.port);
        HXSP_DCHECK(ctx_.graph->link_alive(pi.link));
        deliver(std::move(t.pkt), pi.neighbor, pi.remote_port, t.vc, head,
                tail);
      } else {
        consume_at(std::move(t.pkt), tail, t.vc);
      }
      note_progress();
    }
    stage.clear();
  }
}

void Network::step() {
  // Audit before processing this cycle's events: every structure is
  // settled from the previous cycle, and events still in the wheel are
  // exactly the in-flight credits/consumptions the conservation ledger
  // expects to find there.
  if (now_ == next_audit_) {
    run_audit();
    next_audit_ += cfg_.audit_interval;
  }
  // Telemetry window rollover: the same one-compare gate as the auditor
  // (next_telemetry_ is max() when telemetry is off).
  if (now_ == next_telemetry_) {
    telemetry_->roll(*this);
    next_telemetry_ += cfg_.telemetry_window;
  }
  // Phase profiling (attach_phase_times): one predictable branch per
  // phase boundary when detached; the injected clock never feeds back
  // into simulation state.
  // The det-lint allows below share one justification: pt->clock is the
  // *caller's* injected clock (see StepPhaseTimes), its readings flow
  // only into profiling accumulators, and no simulation decision ever
  // reads them back — behaviour is identical with profiling on or off.
  StepPhaseTimes* const pt = phase_times_;
  double t_prev = pt != nullptr ? pt->clock() : 0.0; // det-lint: allow(wall-clock)
  process_events();
  if (pt != nullptr) {
    const double t = pt->clock(); // det-lint: allow(wall-clock)
    pt->events += t - t_prev;
    t_prev = t;
  }
  // Generation must visit every server in id order: each loaded server
  // draws from the shared RNG stream every cycle, and that draw order is
  // part of the determinism contract. Injection draws nothing, so idle
  // servers skip it via the inline readiness check.
  for (auto& s : servers_) {
    s.generation_phase(*this, now_, rng_);
    if (s.injection_ready(now_)) s.injection_phase(*this, now_);
  }
  if (pt != nullptr) {
    const double t = pt->clock(); // det-lint: allow(wall-clock)
    pt->generation += t - t_prev;
    t_prev = t;
  }
  // Routers without buffered input (resp. waiting output) packets would
  // run their alloc (resp. link) phase as a pure no-op — no RNG draws, no
  // events — so stepping only the busy ids, in ascending id order, is
  // cycle-exact. The link list is built after alloc so a zero-latency
  // crossbar grant can still transmit in the same cycle.
  phase_scratch_.clear();
  for (const Router& r : routers_)
    if (r.has_input_work()) phase_scratch_.push_back(r.id());
  if (step_pool_ != nullptr && phase_scratch_.size() > 1) {
    // Candidate precompute — the RNG-free, read-mostly prefix of the
    // alloc phase — fanned out across the pool; each job writes
    // only its own routers' caches, so it is race-free by partition. The
    // serial alloc loop below then finds every candidate set cached and
    // performs requests, grants and RNG draws in exactly the serial order.
    fan_out([this](std::size_t, std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i)
        routers_[static_cast<std::size_t>(phase_scratch_[i])]
            .precompute_candidates(*this, now_);
    });
  }
  for (SwitchId s : phase_scratch_)
    routers_[static_cast<std::size_t>(s)].alloc_phase(*this, now_);
  if (pt != nullptr) {
    const double t = pt->clock(); // det-lint: allow(wall-clock)
    pt->alloc += t - t_prev;
    t_prev = t;
  }
  // Link phase: every link-active router performs its router-local link
  // work (RNG-free) into a LinkStage — one stage serially, one per worker
  // with a pool — and commit_link_stages replays deliveries and wheel
  // events in (source router id, ordinal) order. Deferring deliveries to
  // the commit is exact even within the cycle: a delivery mutates only the
  // destination router's input side, which no link phase reads.
  phase_scratch_.clear();
  for (const Router& r : routers_)
    if (r.has_link_work()) phase_scratch_.push_back(r.id());
  const auto collect = [this](std::size_t w, std::size_t lo, std::size_t hi) {
    LinkStage& stage = link_stages_[w];
    for (std::size_t i = lo; i < hi; ++i)
      routers_[static_cast<std::size_t>(phase_scratch_[i])].link_phase(
          cfg_, now_, stage);
  };
  if (step_pool_ != nullptr && phase_scratch_.size() > 1)
    fan_out(collect);
  else
    collect(0, 0, phase_scratch_.size());
  commit_link_stages();
  if (pt != nullptr) pt->link += pt->clock() - t_prev; // det-lint: allow(wall-clock)

  if (cfg_.watchdog_cycles > 0 && packets_in_system_ > 0 &&
      now_ - last_progress_ > cfg_.watchdog_cycles) {
    std::fprintf(stderr,
                 "hxsp watchdog: no packet movement for %" PRId64
                 " cycles at cycle %" PRId64 " with %ld packets in flight — "
                 "deadlock or livelock\n",
                 static_cast<std::int64_t>(now_ - last_progress_),
                 static_cast<std::int64_t>(now_), packets_in_system_);
    HXSP_CHECK_MSG(false, "simulation stalled (watchdog)");
  }

#ifndef NDEBUG
  if ((now_ & 0x3FF) == 0)
    for (const auto& r : routers_) r.audit_local(cfg_);
#endif
  ++now_;
}

void Network::run_cycles(Cycle n) {
  const Cycle end = now_ + n;
  while (now_ < end) step();
}

void Network::on_link_failed(LinkId failed) {
  HXSP_CHECK_MSG(!ctx_.graph->link_alive(failed),
                 "fail the link in the graph before notifying the network");
  const auto& ends = ctx_.graph->link(failed);
  // Packets queued for the dead wire are lost (a real failure drops them;
  // end-to-end recovery is above this layer).
  int lost = 0;
  lost += routers_[static_cast<std::size_t>(ends.a)].drop_output_queue(
      *this, ends.port_a);
  lost += routers_[static_cast<std::size_t>(ends.b)].drop_output_queue(
      *this, ends.port_b);
  dropped_packets_ += lost;
  packets_in_system_ -= lost;
  for (auto& r : routers_) r.on_tables_rebuilt();
  note_progress(); // recovery counts as progress for the watchdog
}

void Network::export_telemetry(TelemetryCapture& out) {
  out = TelemetryCapture{};
  out.packet_length = cfg_.packet_length;
  out.num_servers = num_servers();
  if (telemetry_) {
    telemetry_->flush(*this); // close the partial tail window (idempotent)
    telemetry_->export_to(out);
  }
  if (tracer_) {
    out.trace_sample = tracer_->sample();
    out.trace_dropped = tracer_->dropped();
    out.hops = tracer_->hops();
  }
}

bool Network::run_until_drained(Cycle max_cycles) {
  // packets_in_system_ counts every generated-but-unconsumed packet
  // (server queues included), and outstanding_ the budgeted packets not
  // yet generated — together they are the total outstanding work, so the
  // drained check is O(1) instead of a per-cycle scan of every server.
  const Cycle end = now_ + max_cycles;
  while (now_ < end) {
    if (packets_in_system_ == 0 && outstanding_ == 0) return true;
    step();
  }
  return packets_in_system_ == 0 && outstanding_ == 0;
}

} // namespace hxsp
