#include "workload/run.hpp"

#include <algorithm>
#include <limits>

#include "sim/network.hpp"

namespace hxsp {

WorkloadRun::WorkloadRun(MessageList msgs)
    : msgs_(std::move(msgs)), dependents_(workload_dependents(msgs_)) {
  const std::size_t n = msgs_.size();
  pending_deps_.resize(n);
  remaining_.resize(n);
  released_.assign(n, -1);
  phase_done_.assign(static_cast<std::size_t>(workload_num_phases(msgs_)), -1);
  phase_outstanding_.assign(phase_done_.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Message& m = msgs_[i];
    remaining_[i] = m.packets;
    total_packets_ += m.packets;
    ++phase_outstanding_[static_cast<std::size_t>(m.phase)];
    pending_deps_[i] = static_cast<std::uint32_t>(msgs_.deps(i).size());
  }
  latencies_.reserve(n);
}

void WorkloadRun::bind(std::vector<ServerId> servers) {
  HXSP_CHECK_MSG(!started_, "WorkloadRun::bind after start");
  for (const Message& m : msgs_) {
    HXSP_CHECK_MSG(static_cast<std::size_t>(m.src) < servers.size() &&
                       static_cast<std::size_t>(m.dst) < servers.size(),
                   "WorkloadRun::bind smaller than the message list's span");
  }
  binding_ = std::move(servers);
}

void WorkloadRun::release(std::int32_t m, Cycle now, Network& net) {
  const std::size_t mi = static_cast<std::size_t>(m);
  HXSP_DCHECK(released_[mi] < 0);
  released_[mi] = now;
  const ServerId src =
      binding_.empty() ? msgs_[mi].src
                       : binding_[static_cast<std::size_t>(msgs_[mi].src)];
  net.server(src).push_message(msg_base_ + m);
}

void WorkloadRun::start(Network& net) {
  HXSP_CHECK_MSG(!started_, "WorkloadRun::start called twice");
  net.enter_message_mode(this);
  launch(net);
}

void WorkloadRun::launch(Network& net) {
  HXSP_CHECK_MSG(!started_, "WorkloadRun::launch called twice");
  started_ = true;
  // A phase with no messages (a numbering gap in a trace) is vacuously
  // complete at the start cycle — it must not read as "never finished"
  // (-1) in the results of a fully drained run.
  for (std::size_t p = 0; p < phase_outstanding_.size(); ++p)
    if (phase_outstanding_[p] == 0) phase_done_[p] = net.now();
  // Roots released in message order: the deterministic seed of the whole
  // release cascade.
  for (std::size_t i = 0; i < msgs_.size(); ++i)
    if (pending_deps_[i] == 0)
      release(static_cast<std::int32_t>(i), net.now(), net);
}

void WorkloadRun::on_packet_consumed(std::int32_t m, Cycle now, Network& net) {
  const std::size_t mi = static_cast<std::size_t>(m - msg_base_);
  HXSP_DCHECK(remaining_[mi] > 0);
  if (--remaining_[mi] > 0) return;

  // Message complete.
  ++completed_count_;
  latencies_.push_back(now - released_[mi]);
  const std::size_t phase = static_cast<std::size_t>(msgs_[mi].phase);
  if (--phase_outstanding_[phase] == 0) phase_done_[phase] = now;
  for (const std::int32_t d : dependents_.of(mi))
    if (--pending_deps_[static_cast<std::size_t>(d)] == 0)
      release(d, now, net);
}

LatencySummary WorkloadRun::latency_summary() const {
  LatencySummary sum;
  if (latencies_.empty()) return sum;
  std::vector<Cycle> lat = latencies_;
  std::sort(lat.begin(), lat.end());
  double total = 0;
  for (const Cycle l : lat) total += static_cast<double>(l);
  sum.mean = total / static_cast<double>(lat.size());
  sum.p50 = lat[lat.size() / 2];
  sum.p99 =
      lat[static_cast<std::size_t>(0.99 * static_cast<double>(lat.size() - 1))];
  return sum;
}

CompletionSource::CompletionSource(long packets_per_server)
    : packets_(static_cast<int>(packets_per_server)) {
  HXSP_CHECK_MSG(packets_per_server >= 0 &&
                     packets_per_server <= std::numeric_limits<int>::max(),
                 "completion packets per server outside [0, INT_MAX]");
}

void CompletionSource::start(Network& net) {
  HXSP_CHECK_MSG(traffic_ == nullptr, "CompletionSource::start called twice");
  traffic_ = &net.traffic();
  net.enter_message_mode(this);
  if (packets_ == 0) return;
  for (ServerId v = 0; v < net.num_servers(); ++v)
    net.server(v).push_message(v);
}

ServerId CompletionSource::msg_dst(std::int32_t m, Rng& rng) const {
  return traffic_->destination(m, rng);
}

} // namespace hxsp
