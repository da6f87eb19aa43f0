#include "sim/router.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/network.hpp"

namespace hxsp {
namespace {

/// Inserts \p x into sorted \p v (no duplicates expected): link_ports_
/// is iterated in ascending order to mirror a full port scan exactly.
void sorted_id_insert(std::vector<Port>& v, Port x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  HXSP_DCHECK(it == v.end() || *it != x);
  v.insert(it, x);
}

/// Erases \p x from sorted \p v (must be present).
void sorted_id_erase(std::vector<Port>& v, Port x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  HXSP_DCHECK(it != v.end() && *it == x);
  v.erase(it);
}

} // namespace

Router::Router(SwitchId id, int num_switch_ports, int num_server_ports,
               const SimConfig& cfg, PacketSlab& packets)
    : id_(id), num_switch_ports_(num_switch_ports), num_vcs_(cfg.num_vcs),
      len_(cfg.packet_length), outbuf_cap_(cfg.output_buffer_phits()),
      base_credits_(cfg.input_buffer_phits()), packets_(&packets) {
  HXSP_CHECK_MSG(num_vcs_ <= 32, "feasible_mask holds at most 32 VCs");
  const int total_ports = num_switch_ports + num_server_ports;
  HXSP_CHECK_MSG(total_ports <= std::numeric_limits<std::uint16_t>::max() + 1,
                 "Candidate::port holds at most 65536 ports per router");
  const std::size_t total_vcs = static_cast<std::size_t>(total_ports) *
                                static_cast<std::size_t>(num_vcs_);
  inputs_.assign(total_vcs, InputVc{});
  in_q_.reset(total_vcs, cfg.input_buffer_packets);
  OutputVc fresh;
  fresh.credits = base_credits_;
  out_vcs_.assign(total_vcs, fresh);
  out_q_.reset(total_vcs, cfg.output_buffer_packets);
  out_qs_.assign(total_vcs, 0);
  outputs_ = std::vector<OutputPort>(static_cast<std::size_t>(total_ports));
  for (Port p = 0; p < static_cast<Port>(total_ports); ++p)
    for (Vc v = 0; v < num_vcs_; ++v) update_feasible(p, v);
  in_xbar_free_.assign(static_cast<std::size_t>(total_ports), 0);
  link_phits_.assign(static_cast<std::size_t>(num_switch_ports), 0);
  req_chains_.assign(static_cast<std::size_t>(total_ports), RequestChain{});
}

void Router::mark_active(Port p, Vc v) {
  InputVc& iv = input_mut(p, v);
  if (iv.active_pos >= 0) return;
  iv.active_pos = static_cast<int>(active_.size());
  active_.push_back(static_cast<std::int32_t>(vc_index(p, v)));
  // The slot at the new position is a spare, hence invalid: the fresh
  // head computes its candidates on first use.
  if (cand_slots_.size() < active_.size()) cand_slots_.emplace_back();
}

void Router::unmark_active(Port p, Vc v) {
  InputVc& iv = input_mut(p, v);
  if (iv.active_pos < 0) return;
  const std::size_t pos = static_cast<std::size_t>(iv.active_pos);
  const std::size_t last_pos = active_.size() - 1;
  const std::int32_t last = active_[last_pos];
  active_[pos] = last;
  inputs_[static_cast<std::size_t>(last)].active_pos = static_cast<int>(pos);
  // The moved entry takes its candidate slot along; the removed entry's
  // slot (invalidated by the grant that emptied its queue) becomes the
  // spare at the end.
  if (pos != last_pos) std::swap(cand_slots_[pos], cand_slots_[last_pos]);
  HXSP_DCHECK(!cand_slots_[last_pos].valid);
  active_.pop_back();
  iv.active_pos = -1;
}

void Router::push_input(PacketHandle pkt, Port port, Vc vc, Cycle head,
                        Cycle tail) {
  InputVc& iv = input_mut(port, vc);
  Packet& p = (*packets_)[pkt];
  p.buf_head = head;
  p.buf_tail = tail;
  in_q_.push_back(vc_index(port, vc), iv.q, pkt);
  mark_active(port, vc);
}

void Router::compute_candidates(const Network& net, const Packet& head,
                                CandSlot& slot) {
  slot.cand.clear();
  if (head.dst_switch == id_) {
    // Ejection: the only candidate is this packet's server port, VC 0.
    const Port eject = first_server_port() +
                       static_cast<Port>(head.dst_server %
                                         net.servers_per_switch());
    slot.cand.push_back(Candidate::route(eject, 0));
  } else {
    net.mechanism().candidates(net.ctx(), head, id_, slot.cand);
  }
  slot.head_id = head.id;
  slot.valid = true;
}

void Router::alloc_phase(Network& net, Cycle now) {
  if (active_.empty()) return;
  const SimConfig& cfg = net.cfg();
  const int len = cfg.packet_length;

  // --- request phase: every eligible head posts one request ---------------
  for (std::size_t ai = 0; ai < active_.size(); ++ai) {
    const std::int32_t enc = active_[ai];
    if (!head_eligible(static_cast<std::size_t>(enc), now)) continue;
    const Packet& pkt = in_front(static_cast<std::size_t>(enc));
    CandSlot& slot = cand_slots_[ai];
    if (!slot.valid) compute_candidates(net, pkt, slot);

    // Single request: the feasible (port, VC) minimising Q + P, visited
    // port-major and VC-ascending. A scan that finds nothing (an empty
    // list, or every port busy or full) posts no request and draws no RNG.
    int best_score = std::numeric_limits<int>::max();
    int best_idx = -1;
    Vc best_vc = 0;
    int ties = 0;
    for (std::size_t i = 0; i < slot.cand.size(); ++i) {
      const Candidate& c = slot.cand[i];
      const OutputPort& op = outputs_[c.port];
      if (op.xbar_free_at > now) continue;
      const std::uint32_t range = (2u << c.vc_hi) - (1u << c.vc_lo);
      const std::uint32_t m = op.feasible_mask & range;
      if (m == 0) continue;
      // Paper §3: qs = output buffer occupancy + consumed credits of the
      // requested queue; Q = qs + sum over all queues of the same port (so
      // the requested queue counts twice). Both the per-VC qs and the
      // per-port sum are maintained incrementally at every mutation site.
      const int port_score = op.score_sum + c.penalty;
      const int* qs = &out_qs_[vc_index(c.port, 0)];
      for (Vc v = c.vc_lo; v <= c.vc_hi; ++v) {
        if (((m >> static_cast<unsigned>(v)) & 1u) == 0) continue;
        const int score = qs[v] + port_score;
        if (score < best_score) {
          best_score = score;
          best_idx = static_cast<int>(i);
          best_vc = v;
          ties = 1;
        } else if (score == best_score) {
          ++ties;
          if (net.rng().next_below(static_cast<std::uint64_t>(ties)) == 0) {
            best_idx = static_cast<int>(i);
            best_vc = v;
          }
        }
      }
    }
    if (best_idx < 0) continue;
    const Candidate& c = slot.cand[static_cast<std::size_t>(best_idx)];
    // A forced hop (paper §3) is a CRout packet pushed into the escape
    // because the base routing offered nothing; hops of packets already
    // living on the escape are ordinary escape hops. Routing entries come
    // before escape entries (audited), so an escape front means none.
    const bool forced =
        c.escape && !pkt.in_escape && slot.cand.front().escape;
    // Chain the request behind earlier ones to the same output, so each
    // output sees its requests in posting order.
    const std::int32_t ri = static_cast<std::int32_t>(requests_.size());
    requests_.push_back({enc, -1, best_score, c, best_vc, forced});
    RequestChain& chain = req_chains_[static_cast<std::size_t>(c.port)];
    if (chain.first < 0) {
      chain.first = ri;
      dirty_outputs_.push_back(c.port);
    } else {
      requests_[static_cast<std::size_t>(chain.last)].next = ri;
    }
    chain.last = ri;
  }

  // --- grant phase: each requested output grants its best request ---------
  for (const Port out_port : dirty_outputs_) {
    RequestChain& chain = req_chains_[static_cast<std::size_t>(out_port)];
    int best = -1;
    int best_score = std::numeric_limits<int>::max();
    int ties = 0;
    for (std::int32_t i = chain.first; i >= 0;
         i = requests_[static_cast<std::size_t>(i)].next) {
      const Request& r = requests_[static_cast<std::size_t>(i)];
      const Port in_port = static_cast<Port>(r.in_enc / num_vcs_);
      // The input port may have been claimed by a grant of an earlier
      // output this cycle.
      if (in_xbar_free_[static_cast<std::size_t>(in_port)] > now) continue;
      if (r.score < best_score) {
        best_score = r.score;
        best = i;
        ties = 1;
      } else if (r.score == best_score) {
        ++ties;
        if (net.rng().next_below(static_cast<std::uint64_t>(ties)) == 0)
          best = i;
      }
    }
    chain = RequestChain{};
    if (best >= 0) {
      const Request req = requests_[static_cast<std::size_t>(best)];
      // ---- commit the grant --------------------------------------------
      InputVc& iv = inputs_[static_cast<std::size_t>(req.in_enc)];
      const Port in_port = static_cast<Port>(req.in_enc / num_vcs_);
      const Vc in_vc = static_cast<Vc>(req.in_enc % num_vcs_);
      // The cached candidates belonged to the departing head.
      cand_slots_[static_cast<std::size_t>(iv.active_pos)].valid = false;
      const PacketHandle h =
          in_q_.pop_front(static_cast<std::size_t>(req.in_enc), iv.q);
      Packet& pkt = (*packets_)[h];
      if (iv.q.empty()) unmark_active(in_port, in_vc);

      // Cut-through: the tail leaves the input when the crossbar is done
      // or when it has fully arrived, whichever is later. The freed space
      // returns upstream one cycle later, as a credit to the neighbour's
      // output VC or to the server.
      const Cycle drain_done =
          std::max(now + cfg.xbar_cycles(), pkt.buf_tail);
      iv.drain_until = drain_done;
      if (in_port < num_switch_ports_) {
        const PortInfo& pi = net.ctx().graph->port(id_, in_port);
        net.schedule(drain_done + 1, {Event::Kind::CreditRouter, in_vc,
                                      pi.remote_port, pi.neighbor});
      } else {
        net.schedule(drain_done + 1,
                     {Event::Kind::CreditServer, in_vc, 0,
                      id_ * net.servers_per_switch() + in_port -
                          num_switch_ports_});
      }
      in_xbar_free_[static_cast<std::size_t>(in_port)] =
          now + cfg.xbar_cycles();

      OutputPort& op = outputs_[static_cast<std::size_t>(out_port)];
      op.xbar_free_at = now + cfg.xbar_cycles();
      const std::size_t out_idx = vc_index(out_port, req.out_vc);
      OutputVc& ov = out_vcs_[out_idx];
      ov.credits -= len;
      op.score_sum += 2 * len; // +len occupancy, +len consumed credits
      out_qs_[out_idx] += 2 * len;
      update_feasible(out_port, req.out_vc);
      if (op.waiting++ == 0) sorted_id_insert(link_ports_, out_port);

      pkt.buf_head = now + cfg.xbar_latency;
      pkt.buf_tail = drain_done + cfg.xbar_latency;

      // Telemetry: before commit_hop mutates pkt.in_escape, so an escape
      // grant of a packet not yet on the escape counts as a SurePath
      // activation. Server-port grants carry no hop semantics (the
      // switch-port branch below mirrors the metrics hook).
      if (TelemetryRegistry* const t = net.telemetry()) {
        if (out_port < num_switch_ports_)
          t->on_grant(id_, req.out_vc, req.cand.escape && !pkt.in_escape);
      }
      if (PacketTracer* const tr = net.tracer())
        tr->record(TraceEvent::kGrant, now, pkt.id, id_, out_port,
                   req.out_vc);

      if (out_port < num_switch_ports_) {
        net.mechanism().commit_hop(net.ctx(), pkt, id_, req.cand, req.out_vc);
        net.metrics().on_hop(req.forced       ? HopKind::Forced
                             : req.cand.escape ? HopKind::Escape
                                               : HopKind::Routing);
      }
      out_q_.push_back(out_idx, ov.q, h);
      net.note_progress();
    }
  }
  requests_.clear();
  dirty_outputs_.clear();
}

void Router::link_phase(const SimConfig& cfg, Cycle now, LinkStage& out) {
  const int len = cfg.packet_length;
  // Snapshot: transmissions may drain a port and shrink link_ports_.
  link_scratch_.assign(link_ports_.begin(), link_ports_.end());
  for (const Port p : link_scratch_) {
    OutputPort& op = outputs_[static_cast<std::size_t>(p)];
    if (op.waiting == 0 || op.link_free_at > now) continue;
    const std::size_t vbase = vc_index(p, 0);
    for (int k = 0; k < num_vcs_; ++k) {
      const int v = (op.rr_next + k) % num_vcs_;
      const std::size_t idx = vbase + static_cast<std::size_t>(v);
      OutputVc& ov = out_vcs_[idx];
      if (ov.q.empty() || out_front(idx).buf_head > now) continue;
      const PacketHandle pkt = out_q_.pop_front(idx, ov.q);
      if (--op.waiting == 0) sorted_id_erase(link_ports_, p);
      op.link_free_at = now + len;
      op.rr_next = (v + 1) % num_vcs_;
      if (p < num_switch_ports_) link_phits_[static_cast<std::size_t>(p)] += len;
      out.push_back({pkt, id_, p, static_cast<Vc>(v)});
      break;
    }
  }
}

void Router::on_tables_rebuilt() {
  for (CandSlot& slot : cand_slots_) slot.valid = false;
  // Strict-phase escape liveness is proven per table build; restart the
  // phase so every packet re-derives a valid route on the new tables.
  for (std::size_t idx = 0; idx < inputs_.size(); ++idx) {
    const RingSlab<PacketHandle>::Ring iq = inputs_[idx].q;
    for (int i = 0; i < iq.size; ++i)
      (*packets_)[in_q_.at(idx, iq, i)].escape_gone_down = false;
    const RingSlab<PacketHandle>::Ring oq = out_vcs_[idx].q;
    for (int i = 0; i < oq.size; ++i)
      (*packets_)[out_q_.at(idx, oq, i)].escape_gone_down = false;
  }
}

int Router::drop_output_queue(Network& net, Port port) {
  const int len = net.cfg().packet_length;
  OutputPort& op = outputs_[static_cast<std::size_t>(port)];
  int dropped = 0;
  for (Vc v = 0; v < num_vcs_; ++v) {
    const std::size_t idx = vc_index(port, v);
    OutputVc& ov = out_vcs_[idx];
    while (!ov.q.empty()) {
      packets_->free(out_q_.pop_front(idx, ov.q));
      ov.credits += len; // reserved downstream space unused
      // -len occupancy (no OutTailGone will fire), -len consumed credits
      op.score_sum -= 2 * len;
      out_qs_[idx] -= 2 * len;
      --op.waiting;
      ++dropped;
    }
    update_feasible(port, v);
  }
  if (dropped > 0 && op.waiting == 0) sorted_id_erase(link_ports_, port);
  return dropped;
}

int Router::buffered_packets() const {
  int n = 0;
  for (const auto& iv : inputs_) n += iv.q.size;
  for (const auto& ov : out_vcs_) n += ov.q.size;
  return n;
}

} // namespace hxsp
