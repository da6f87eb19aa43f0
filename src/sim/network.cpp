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
  HXSP_CHECK_MSG(!mech_.needs_escape() || ctx_.escape != nullptr,
                 "mechanism requires an escape subnetwork in the context");
  HXSP_CHECK(servers_per_switch_ >= 1);
  // Config validation. Manifests may set any sim field, and a delay the
  // 64-slot wheel cannot hold would wrap into an earlier slot and corrupt
  // the run silently, so each field is named in its own check.
  check_at_least(cfg_.packet_length, 1, "sim.packet_length");
  check_at_least(cfg_.xbar_speedup, 1, "sim.xbar_speedup");
  check_at_least(cfg_.num_vcs, 1, "sim.num_vcs");
  // Fewer VCs than one rung (plus SurePath's escape VC) would clamp the
  // rung below VC 0 or leave no legal injection VC.
  HXSP_CHECK_MSG(cfg_.num_vcs >= mech_.min_vcs(),
                 ("sim.num_vcs = " + std::to_string(cfg_.num_vcs) + " but " +
                  mech_.name() + " needs >= " + std::to_string(mech_.min_vcs()))
                     .c_str());
  check_at_least(cfg_.input_buffer_packets, 1, "sim.input_buffer_packets");
  check_at_least(cfg_.output_buffer_packets, 1, "sim.output_buffer_packets");
  check_at_least(cfg_.server_queue_packets, 1, "sim.server_queue_packets");
  // The scheduled delays: OutTailGone after packet_length cycles, Consume
  // after link_latency + packet_length - 1, a grant's upstream credit at
  // most max(xbar_cycles + 1, packet_length) ahead (one cycle after a drain
  // that waits for the tail) and a Consume's eject credit one ahead.
  HXSP_CHECK_MSG(cfg_.packet_length < kWheelSize,
                 "sim.packet_length must be < 64 (event wheel horizon)");
  HXSP_CHECK_MSG(cfg_.xbar_cycles() + 1 < kWheelSize,
                 "sim.packet_length / sim.xbar_speedup, rounded up, must be "
                 "< 63 (event wheel horizon)");
  check_at_least(cfg_.link_latency, 0, "sim.link_latency");
  const int consume_delay = cfg_.link_latency + cfg_.packet_length - 1;
  HXSP_CHECK_MSG(consume_delay >= 1 && consume_delay < kWheelSize,
                 "sim.link_latency + sim.packet_length - 1 must lie in 1..63 "
                 "(event wheel horizon)");
  check_at_least(cfg_.xbar_latency, 0, "sim.xbar_latency");
  check_at_least(cfg_.watchdog_cycles, 0, "sim.watchdog_cycles");
  check_at_least(cfg_.audit_interval, 0, "sim.audit_interval");
  check_at_least(cfg_.telemetry_window, 0, "sim.telemetry_window");
  check_at_least(cfg_.trace_sample, 0, "sim.trace_sample");
  check_at_least(cfg_.flight_recorder, 0, "sim.flight_recorder");

  for (auto& slot : wheel_) slot.attach(&event_chunks_);

  const SwitchId n = ctx_.graph->num_switches();
  for (SwitchId s = 0; s < n; ++s)
    routers_.emplace_back(s, ctx_.graph->degree(s), servers_per_switch_, cfg_,
                          packets_);

  const ServerId total = static_cast<ServerId>(n) * servers_per_switch_;
  server_queues_.reset(static_cast<std::size_t>(total),
                       cfg_.server_queue_packets);
  server_credits_.assign(static_cast<std::size_t>(total) *
                             static_cast<std::size_t>(cfg_.num_vcs),
                         cfg_.input_buffer_phits());
  for (ServerId v = 0; v < total; ++v)
    servers_.emplace_back(v, static_cast<SwitchId>(v / servers_per_switch_),
                          static_cast<int>(v % servers_per_switch_), cfg_);

  metrics_.configure(total, cfg_.packet_length);

  next_audit_ = cfg_.audit_interval > 0 ? cfg_.audit_interval
                                        : std::numeric_limits<Cycle>::max();

  // Observability (src/telemetry/): each instrument exists only when its
  // knob is on, so the hook sites in the step paths cost one null compare
  // in the default configuration.
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
        std::vector<std::string>{"CreditRouter", "CreditServer",
                                 "OutTailGone", "Consume"});
}

void Network::set_offered_load(double load) {
  for (auto& s : servers_) s.set_offered_load(load, cfg_.packet_length);
}

void Network::enter_message_mode(MessageSource* source) {
  HXSP_CHECK(source != nullptr);
  for (auto& s : servers_) s.set_message_mode();
  source_ = source;
}

void Network::handle_consume(const Event& ev) {
  const PacketHandle h = static_cast<PacketHandle>(ev.a);
  const Packet& pkt = packets_[h];
  const ServerId dst = pkt.dst_server;
  const std::int32_t msg = pkt.msg;
  const SwitchId sw = dst / servers_per_switch_;
  metrics_.on_consumed(dst, pkt.created, now_);
  packets_.free(h);
  if (timeseries_) timeseries_->add(now_, cfg_.packet_length);
  if (telemetry_) telemetry_->on_eject(sw);
  note_progress();
  // Message mode: attribute the consumption to its message, which may
  // complete it and release dependent messages (the completion callback
  // chain feeding the next phase).
  if (msg >= 0) source_->on_packet_consumed(msg, now_, *this);
  // Return the eject credit to the router's server port.
  schedule(now_ + 1,
           {Event::Kind::CreditRouter, ev.vc,
            router(sw).first_server_port() + dst % servers_per_switch_, sw});
}

void Network::process_events() {
  PooledRing<Event>& slot =
      wheel_[static_cast<std::size_t>(now_ & (kWheelSize - 1))];
  if (slot.empty()) return;
  // Every event scheduled while the slot is applied lands in a later slot
  // (at most 63 cycles ahead), so scheduling while scanning is safe.
  slot.for_each([&](const Event& ev) {
    // Flight recorder: remember the event just before applying it, so the
    // ring order is the application order. A Consume is recorded by its
    // destination server and creation cycle, not by its packet's handle.
    if (flight_) {
      std::int32_t target = ev.a;
      Cycle created = 0;
      if (ev.kind == Event::Kind::Consume) {
        const Packet& pkt = packets_[static_cast<PacketHandle>(ev.a)];
        target = pkt.dst_server;
        created = pkt.created;
      }
      flight_->record(now_, static_cast<std::uint8_t>(ev.kind), target,
                      ev.port, ev.vc, created,
                      ev.kind != Event::Kind::CreditServer &&
                          ev.kind != Event::Kind::Consume);
    }
    switch (ev.kind) {
      case Event::Kind::CreditRouter:
        routers_[static_cast<std::size_t>(ev.a)].credit_return(ev.port, ev.vc);
        break;
      case Event::Kind::CreditServer:
        server_credits(ev.a)[ev.vc] += cfg_.packet_length;
        break;
      case Event::Kind::OutTailGone:
        routers_[static_cast<std::size_t>(ev.a)].output_tail_gone(ev.port,
                                                                  ev.vc);
        break;
      case Event::Kind::Consume:
        handle_consume(ev);
        break;
    }
  });
  slot.clear();
}

void Network::deliver(PacketHandle pkt, SwitchId sw, Port port, Vc vc,
                      Cycle head, Cycle tail) {
  Packet& p = packets_[pkt];
  mech_.on_arrival(ctx_, p, sw);
  if (tracer_) tracer_->record(TraceEvent::kArrive, head, p.id, sw, port, vc);
  Router& r = routers_[static_cast<std::size_t>(sw)];
  r.push_input(pkt, port, vc, head, tail);
  HXSP_DCHECK(r.input_occupancy(port, vc, now_) <= cfg_.input_buffer_phits());
  if (telemetry_)
    telemetry_->on_occupancy(sw, r.input_occupancy(port, vc, now_));
}

void Network::consume_at(PacketHandle pkt, Cycle when, Vc vc) {
  const Packet& p = packets_[pkt];
  HXSP_DCHECK(p.dst_switch ==
              static_cast<SwitchId>(p.dst_server / servers_per_switch_));
  // Trace at scheduling, not in handle_consume, so eject records keep
  // their place in the trace order: `when` is the cycle the tail phit is
  // consumed.
  if (tracer_)
    tracer_->record(TraceEvent::kEject, when, p.id, p.dst_switch,
                    router(p.dst_switch).first_server_port() +
                        p.dst_server % servers_per_switch_,
                    vc);
  // The packet stays in the slab until the event fires (handle_consume).
  schedule(when, {Event::Kind::Consume, vc, 0, static_cast<std::int32_t>(pkt)});
}

void Network::set_step_pool(ThreadPool* pool) {
  step_pool_ = pool;
  link_stages_.clear();
  link_stages_.resize(
      pool != nullptr ? static_cast<std::size_t>(pool->size()) : 1);
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
      schedule(now_ + len, {Event::Kind::OutTailGone, t.vc, t.port, t.src});
      if (t.port <
          routers_[static_cast<std::size_t>(t.src)].first_server_port()) {
        const PortInfo& pi = ctx_.graph->port(t.src, t.port);
        HXSP_DCHECK(ctx_.graph->link_alive(pi.link));
        deliver(t.pkt, pi.neighbor, pi.remote_port, t.vc, head, tail);
      } else {
        consume_at(t.pkt, tail, t.vc);
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
  // cycle-exact. An alloc phase reaches other routers only through
  // future-cycle events, so no router gains input work during the scan.
  // The link list is built after alloc so a zero-latency crossbar grant
  // can still transmit in the same cycle.
  for (Router& r : routers_)
    if (r.has_input_work()) r.alloc_phase(*this, now_);
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
  const std::size_t n = phase_scratch_.size();
  const auto collect = [this](std::size_t w, std::size_t lo, std::size_t hi) {
    LinkStage& stage = link_stages_[w];
    for (std::size_t i = lo; i < hi; ++i)
      routers_[static_cast<std::size_t>(phase_scratch_[i])].link_phase(
          cfg_, now_, stage);
  };
  if (step_pool_ != nullptr && n > 1) {
    // Contiguous ascending ranges, one per worker: concatenating the
    // workers' stages in worker order is the serial (router id) order.
    const std::size_t workers = static_cast<std::size_t>(step_pool_->size());
    const std::size_t per = (n + workers - 1) / workers;
    for (std::size_t w = 0; w * per < n; ++w) {
      const std::size_t lo = w * per;
      const std::size_t hi = std::min(lo + per, n);
      step_pool_->submit([&collect, w, lo, hi] { collect(w, lo, hi); });
    }
    step_pool_->wait_idle();
  } else {
    collect(0, 0, n);
  }
  commit_link_stages();
  if (pt != nullptr) pt->link += pt->clock() - t_prev; // det-lint: allow(wall-clock)

  if (cfg_.watchdog_cycles > 0 && packets_.live() > 0 &&
      now_ - last_progress_ > cfg_.watchdog_cycles) {
    std::fprintf(stderr,
                 "hxsp watchdog: no packet movement for %" PRId64
                 " cycles at cycle %" PRId64 " with %ld packets in flight — "
                 "deadlock or livelock\n",
                 static_cast<std::int64_t>(now_ - last_progress_),
                 static_cast<std::int64_t>(now_), packets_.live());
    HXSP_CHECK_MSG(false, "simulation stalled (watchdog)");
  }

#ifndef NDEBUG
  if ((now_ & 0x3FF) == 0)
    for (const auto& r : routers_) r.audit_local(cfg_, now_);
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
  dropped_packets_ += routers_[static_cast<std::size_t>(ends.a)]
                          .drop_output_queue(*this, ends.port_a);
  dropped_packets_ += routers_[static_cast<std::size_t>(ends.b)]
                          .drop_output_queue(*this, ends.port_b);
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
  // The slab holds every generated-but-unconsumed packet (server queues
  // included), so the servers are scanned only once it is empty. Work
  // released inside a step (a Consume callback) is generated in that
  // step's generation phase, so an empty fabric at a step boundary
  // with work left means work released outside a step (a source's start,
  // a tenant arrival), which some server holds. A message not yet
  // released waits on one not yet consumed, so with every server idle
  // none is left (validated dependency lists are acyclic).
  const auto drained = [this] {
    return packets_.live() == 0 &&
           std::none_of(servers_.begin(), servers_.end(), [](const Server& s) {
             return s.holds_message_work();
           });
  };
  const Cycle end = now_ + max_cycles;
  while (now_ < end) {
    if (drained()) return true;
    step();
  }
  return drained();
}

} // namespace hxsp
