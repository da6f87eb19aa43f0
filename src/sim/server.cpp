#include "sim/server.hpp"

#include "sim/network.hpp"
#include "workload/run.hpp"

namespace hxsp {

Server::Server(ServerId id, SwitchId sw, int local, const SimConfig& cfg)
    : queue_capacity_(cfg.server_queue_packets), id_(id), switch_(sw),
      local_(local) {}

void Server::set_offered_load(double load, int packet_length) {
  HXSP_CHECK(load >= 0.0);
  inject_prob_ = load / static_cast<double>(packet_length);
  HXSP_CHECK_MSG(inject_prob_ <= 1.0, "offered load exceeds 1 packet/cycle");
}

void Server::set_message_mode() {
  inject_prob_ = 0.0;
  msg_ = kInvalid;
  msg_left_ = 0;
  ready_.clear();
}

void Server::make_packet(Network& net, Cycle now, std::int32_t msg) {
  const PacketHandle h = net.packets().alloc();
  Packet& pkt = net.packets()[h];
  pkt.id = net.next_packet_id();
  pkt.dst_server = msg == kInvalid
                       ? net.traffic().destination(id_, net.rng())
                       : net.message_source()->msg_dst(msg, net.rng());
  pkt.src_switch = switch_;
  pkt.dst_switch = static_cast<SwitchId>(pkt.dst_server /
                                         net.servers_per_switch());
  pkt.created = now;
  // The message id rides the packet so its consumption can be attributed
  // back to the message.
  pkt.msg = msg;
  net.mechanism().on_inject(net.ctx(), pkt, net.rng());
  net.metrics().on_generated(id_, now);
  net.server_queues().push_back(static_cast<std::size_t>(id_), queue_, h);
}

void Server::message_refill(Network& net, Cycle now) {
  while (queue_.size < queue_capacity_) {
    while (msg_left_ == 0) {
      if (ready_.empty()) return;
      msg_ = ready_.pop_front();
      msg_left_ = net.message_source()->start_message(msg_);
    }
    make_packet(net, now, msg_);
    --msg_left_;
  }
}

void Server::injection_phase(Network& net, Cycle now) {
  if (queue_.empty() || link_free_at_ > now) return;
  const int len = net.cfg().packet_length;
  RingSlab<PacketHandle>& queues = net.server_queues();
  const std::size_t ring = static_cast<std::size_t>(id_);

  // Join the emptiest legal VC with room for the whole packet.
  const VcRange legal = net.mechanism().injection_vcs(net.ctx());
  int* const credits = net.server_credits(id_);
  Vc best = kInvalid;
  int best_credits = len - 1;
  for (Vc v = legal.lo; v <= legal.hi; ++v) {
    const int c = credits[v];
    if (c > best_credits) {
      best_credits = c;
      best = v;
    }
  }
  if (best == kInvalid) {
    // A packet is ready and the link is free, but no legal VC holds a
    // whole packet's worth of credits: a credit stall.
    if (TelemetryRegistry* const t = net.telemetry())
      t->on_credit_stall(switch_);
    return;
  }

  const PacketHandle pkt = queues.pop_front(ring, queue_);
  Packet& p = net.packets()[pkt];
  p.cur_vc = best;
  credits[best] -= len;
  link_free_at_ = now + len;

  // The switch's server ports follow its switch ports, in local order.
  const Port port = net.router(switch_).first_server_port() + local_;
  const Cycle head = now + net.cfg().link_latency;
  const Cycle tail = head + len - 1;
  if (TelemetryRegistry* const t = net.telemetry()) t->on_inject(switch_);
  if (PacketTracer* const tr = net.tracer())
    tr->record(TraceEvent::kInject, now, p.id, switch_, port, best);
  net.deliver(pkt, switch_, port, best, head, tail);
  net.note_progress();
}

} // namespace hxsp
