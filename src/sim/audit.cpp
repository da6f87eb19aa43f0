/// \file audit.cpp
/// The engine invariant auditor.
///
/// The engine keeps incrementally maintained state instead of full
/// per-cycle scans: per-output-VC qs and per-port score sums (allocator
/// scoring), feasibility masks, waiting counts, per-router active input
/// lists, candidate slots, and the O(1) packet counter.
/// Each of those is updated at a handful of mutation sites; a future edit
/// that misses one site produces no crash — just a silently different (and
/// wrong) simulation three PRs later. The auditor recomputes every one of those structures
/// from first principles and aborts on the first mismatch, so drift fails
/// loudly at the cycle it appears. What the engine can read from primary
/// state (both VC occupancies, a queue's head cycle, a server's or an
/// eject event's port) it derives instead of storing, so no copy of it
/// can drift.
///
/// Everything here is read-only: enabling the audit (SimConfig::
/// audit_interval > 0, or an HXSP_AUDIT build) can never change simulation
/// output, only convert a silent divergence into a loud one. Conservation
/// ledgers include the event wheel, so the audit holds at any cycle
/// boundary, not only in a drained network:
///
///   credits:  base == held upstream + reserved by queued packets
///                  + queued downstream + in flight on the wheel
///   packets:  packets_in_system == buffered in routers + queued in
///             servers + pending consumptions
///
/// A packet granted out of an input buffer no longer counts downstream:
/// its grant scheduled the credit for its space, which rides the wheel
/// until the cycle after its drain.

#include <algorithm>
#include <vector>

#include "sim/network.hpp"
#include "sim/router.hpp"

namespace hxsp {

void Router::audit_local(const SimConfig& cfg, Cycle now) const {
  const int len = cfg.packet_length;
  HXSP_CHECK_MSG(len == len_ && outbuf_cap_ == cfg.output_buffer_phits(),
                 "audit: router config drifted from construction");

  // --- inputs: occupancy, active list -------------------------------------
  int active_count = 0;
  for (Port p = 0; p < static_cast<Port>(outputs_.size()); ++p) {
    for (Vc v = 0; v < num_vcs_; ++v) {
      const InputVc& iv = inputs_[vc_index(p, v)];
      HXSP_CHECK_MSG(input_occupancy(p, v, now) <= cfg.input_buffer_phits(),
                     "audit: input buffer overflow");
      const bool listed = iv.active_pos >= 0;
      HXSP_CHECK_MSG(listed == !iv.q.empty(),
                     "audit: active input list out of sync with queue");
      if (!listed) continue;
      ++active_count;
      HXSP_CHECK_MSG(
          iv.active_pos < static_cast<int>(active_.size()) &&
              active_[static_cast<std::size_t>(iv.active_pos)] ==
                  static_cast<std::int32_t>(vc_index(p, v)),
          "audit: active input list back-pointer corrupt");
    }
  }
  HXSP_CHECK_MSG(static_cast<int>(active_.size()) == active_count,
                 "audit: active input list size drifted");

  // --- candidate slots: one per active entry, never stale -----------------
  // A slot caches the candidates of the head at the same active_ position.
  // A grant must invalidate it (the next head routes differently), and a
  // swap-remove must carry it along with its entry; a miss at either site
  // would route a packet on another packet's candidates. The entries
  // themselves index outputs_ and out_qs_ unchecked in the request scan,
  // so each must name a real port and a VC range inside num_vcs_. The
  // routing entries must come first: the allocator calls an escape grant
  // forced when the list starts with an escape entry.
  HXSP_CHECK_MSG(cand_slots_.size() >= active_.size(),
                 "audit: active input without a candidate slot");
  for (std::size_t i = 0; i < cand_slots_.size(); ++i) {
    const CandSlot& slot = cand_slots_[i];
    if (!slot.valid) continue;
    HXSP_CHECK_MSG(i < active_.size(),
                   "audit: valid candidate slot past the active input list");
    HXSP_CHECK_MSG(
        slot.head_id ==
            in_front(static_cast<std::size_t>(active_[i])).id,
        "audit: candidate slot outlived its head (granted since filled)");
    bool escape_seen = false;
    for (const Candidate& c : slot.cand) {
      HXSP_CHECK_MSG(c.port < num_ports(),
                     "audit: candidate entry names a port past the router");
      HXSP_CHECK_MSG(c.vc_lo <= c.vc_hi && c.vc_hi < num_vcs_,
                     "audit: candidate entry has an invalid VC range");
      HXSP_CHECK_MSG(!c.escape || (c.vc_lo == num_vcs_ - 1 &&
                                   c.vc_hi == num_vcs_ - 1),
                     "audit: escape candidate off the escape VC");
      HXSP_CHECK_MSG(c.escape || !escape_seen,
                     "audit: candidate slot lists a routing entry after an "
                     "escape entry");
      escape_seen = escape_seen || c.escape;
    }
  }

  // --- outputs: occupancy, score sums, masks, waiting counts --------------
  for (Port p = 0; p < static_cast<Port>(outputs_.size()); ++p) {
    const OutputPort& op = outputs_[static_cast<std::size_t>(p)];
    int score_sum = 0;
    int port_waiting = 0;
    for (Vc v = 0; v < num_vcs_; ++v) {
      const OutputVc& ov = out_vcs_[vc_index(p, v)];
      const int occupancy = out_occupancy(vc_index(p, v));
      HXSP_CHECK_MSG(occupancy >= 0 && occupancy <= cfg.output_buffer_phits(),
                     "audit: output occupancy out of range");
      HXSP_CHECK_MSG(ov.credits >= 0 && ov.credits <= base_credits_,
                     "audit: credit counter out of range");
      const bool feasible =
          ov.credits >= len_ && occupancy + len_ <= outbuf_cap_;
      HXSP_CHECK_MSG(((op.feasible_mask >> static_cast<unsigned>(v)) & 1u) ==
                         (feasible ? 1u : 0u),
                     "audit: feasibility mask drifted from recomputation");
      score_sum += out_qs_[vc_index(p, v)];
      port_waiting += ov.q.size;
    }
    HXSP_CHECK_MSG(op.score_sum == score_sum,
                   "audit: per-port score sum drifted from recomputation");
    HXSP_CHECK_MSG(op.waiting == port_waiting,
                   "audit: per-port waiting count drifted from queues");
    const bool listed =
        std::binary_search(link_ports_.begin(), link_ports_.end(), p);
    HXSP_CHECK_MSG(listed == (op.waiting > 0),
                   "audit: link port list out of sync with waiting counts");
  }
  HXSP_CHECK_MSG(std::is_sorted(link_ports_.begin(), link_ports_.end()),
                 "audit: link port list not sorted");
}

void Network::run_audit() const {
  const int len = cfg_.packet_length;
  const int num_vcs = cfg_.num_vcs;

  // --- per-router recomputation -------------------------------------------
  for (const Router& r : routers_) r.audit_local(cfg_, now_);

  // --- wheel scan: the in-flight side of every conservation ledger --------
  // credit_inflight[r][port*V+vc]: credit phits on their way back to that
  // output VC (CreditRouter events, plus pending Consume events whose
  // eject credit has not been scheduled yet), one packet each.
  // tail_pending: OutTailGone events that will release output-buffer
  // occupancy.
  std::vector<std::vector<long>> credit_inflight(routers_.size());
  std::vector<std::vector<int>> tail_pending(routers_.size());
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    const std::size_t slots = static_cast<std::size_t>(routers_[i].num_ports()) *
                              static_cast<std::size_t>(num_vcs);
    credit_inflight[i].assign(slots, 0);
    tail_pending[i].assign(slots, 0);
  }
  std::vector<std::vector<long>> server_credit_inflight(
      servers_.size(),
      std::vector<long>(static_cast<std::size_t>(num_vcs), 0));
  long pending_consume = 0;
  // The wheel's slots are an opaque FIFO abstraction (pooled chunk rings
  // since the PR 9 flattening); the ledger iterates them through
  // for_each, so it stays exact whatever the storage layout.
  for (const auto& slot : wheel_) {
    slot.for_each([&](const Event& ev) {
      switch (ev.kind) {
        case Event::Kind::CreditRouter:
          credit_inflight[static_cast<std::size_t>(ev.a)]
                         [routers_[static_cast<std::size_t>(ev.a)].vc_index(
                             ev.port, ev.vc)] += len;
          break;
        case Event::Kind::CreditServer:
          server_credit_inflight[static_cast<std::size_t>(ev.a)]
                                [static_cast<std::size_t>(ev.vc)] += len;
          break;
        case Event::Kind::OutTailGone:
          ++tail_pending[static_cast<std::size_t>(ev.a)]
                        [routers_[static_cast<std::size_t>(ev.a)].vc_index(
                            ev.port, ev.vc)];
          break;
        case Event::Kind::Consume: {
          ++pending_consume;
          // The eject credit is scheduled only when this fires; until
          // then the pending consumption itself carries the reservation.
          const SwitchId sw = ev.a / servers_per_switch_;
          const Router& r = routers_[static_cast<std::size_t>(sw)];
          const Port port = r.first_server_port() +
                            static_cast<Port>(ev.a % servers_per_switch_);
          credit_inflight[static_cast<std::size_t>(sw)]
                         [r.vc_index(port, ev.vc)] += len;
          break;
        }
      }
    });
  }

  // --- link-phase staging buffers -----------------------------------------
  // The link stages live only between collect and commit inside one step.
  // At any cycle boundary (where the audit runs) they must be fully
  // drained — a staged-but-uncommitted transmission here would be a
  // packet missing from every ledger above.
  for (const LinkStage& stage : link_stages_)
    HXSP_CHECK_MSG(stage.empty(),
                   "audit: link-phase staging buffer not drained at a cycle "
                   "boundary");

  // --- per-output-VC conservation: occupancy and credits ------------------
  for (const Router& r : routers_) {
    for (Port p = 0; p < static_cast<Port>(r.num_ports()); ++p) {
      const bool dead_link =
          p < r.num_switch_ports_ && !ctx_.graph->port_alive(r.id_, p);
      for (Vc v = 0; v < num_vcs; ++v) {
        const std::size_t idx = r.vc_index(p, v);
        const OutputVc& ov = r.out_vcs_[idx];
        // Occupancy is reserved from grant until the tail leaves over the
        // link: queued packets plus transmissions awaiting OutTailGone.
        // It is derived from qs, so this checks the maintained qs.
        HXSP_CHECK_MSG(
            r.out_occupancy(idx) ==
                len * (ov.q.size +
                       tail_pending[static_cast<std::size_t>(r.id_)][idx]),
            "audit: output occupancy drifted from queue + pending tails");
        if (dead_link) {
          HXSP_CHECK_MSG(ov.q.empty(),
                         "audit: packet queued on a dead link's output");
          continue; // credits of dropped packets were force-returned
        }
        // Credit conservation: every phit of the downstream input buffer
        // is exactly one of — still free (credits), reserved by a packet
        // queued here, queued downstream, or riding the wheel home.
        long accounted =
            ov.credits + static_cast<long>(len) * ov.q.size +
            credit_inflight[static_cast<std::size_t>(r.id_)][idx];
        if (p < r.num_switch_ports_) {
          const PortInfo& pi = ctx_.graph->port(r.id_, p);
          accounted += static_cast<long>(len) *
                       routers_[static_cast<std::size_t>(pi.neighbor)]
                           .input(pi.remote_port, v)
                           .q.size;
        }
        HXSP_CHECK_MSG(accounted == r.base_credits_,
                       "audit: credit conservation violated");
      }
    }
  }

  // --- server injection credit conservation -------------------------------
  for (const Server& s : servers_) {
    const Router& r = routers_[static_cast<std::size_t>(s.switch_id())];
    const Port port =
        r.first_server_port() + static_cast<Port>(s.local_index());
    for (Vc v = 0; v < num_vcs; ++v) {
      const long accounted =
          server_credits_[static_cast<std::size_t>(s.id()) *
                              static_cast<std::size_t>(num_vcs) +
                          static_cast<std::size_t>(v)] +
          server_credit_inflight[static_cast<std::size_t>(s.id())]
                                [static_cast<std::size_t>(v)] +
          static_cast<long>(len) * r.input(port, v).q.size;
      HXSP_CHECK_MSG(accounted == cfg_.input_buffer_phits(),
                     "audit: server injection credit conservation violated");
    }
  }

  // --- packet conservation ------------------------------------------------
  long buffered = 0;
  for (const Router& r : routers_) buffered += r.buffered_packets();
  long queued = 0;
  for (const Server& s : servers_) queued += s.queued();
  HXSP_CHECK_MSG(packets_in_system_ == buffered + queued + pending_consume,
                 "audit: packet conservation violated");
}

} // namespace hxsp
