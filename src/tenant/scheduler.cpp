#include "tenant/scheduler.hpp"

#include <algorithm>

#include "sim/network.hpp"
#include "util/check.hpp"

namespace hxsp {

TenantScheduler::TenantScheduler(const MultitenantParams& params,
                                 std::vector<MessageList> job_msgs,
                                 ServerId num_servers, int servers_per_switch,
                                 Rng placement_rng)
    : policy_(make_placement(params.placement)),
      map_(num_servers, servers_per_switch),
      placement_rng_(placement_rng) {
  HXSP_CHECK_MSG(!params.jobs.empty(), "multitenant run with no jobs");
  HXSP_CHECK(params.jobs.size() == job_msgs.size());
  const std::size_t n = params.jobs.size();
  runs_.reserve(n);
  msg_base_.reserve(n);
  bindings_.resize(n);
  stats_.reserve(n);
  std::int32_t base = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const JobSpec& job = params.jobs[j];
    HXSP_CHECK_MSG(job.demand >= 1 && job.demand <= num_servers,
                   "job demand outside [1, num_servers]");
    HXSP_CHECK_MSG(job.arrival >= 0 && job.deadline >= 0,
                   "negative job arrival/deadline");
    auto run = std::make_unique<WorkloadRun>(std::move(job_msgs[j]));
    run->set_msg_base(base);
    msg_base_.push_back(base);
    base += static_cast<std::int32_t>(run->num_messages());

    TenantJobStats st;
    st.job = static_cast<int>(j);
    st.workload = job.workload.name;
    st.demand = job.demand;
    st.arrival = job.arrival;
    st.deadline = job.deadline;
    st.num_messages = static_cast<long>(run->num_messages());
    st.total_packets = run->total_packets();
    stats_.push_back(std::move(st));
    runs_.push_back(std::move(run));
  }
  // Arrival processing order: by arrival cycle, job order on ties — the
  // deterministic seed of every admission decision.
  arrival_order_.resize(n);
  for (std::size_t j = 0; j < n; ++j) arrival_order_[j] = j;
  std::stable_sort(arrival_order_.begin(), arrival_order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return params.jobs[a].arrival < params.jobs[b].arrival;
                   });
}

void TenantScheduler::start(Network& net) {
  HXSP_CHECK_MSG(!started_, "TenantScheduler::start called twice");
  HXSP_CHECK(net.num_servers() == map_.num_servers());
  started_ = true;
  net.enter_message_mode(this);
}

Cycle TenantScheduler::next_arrival() const {
  if (next_arrival_ >= arrival_order_.size()) return -1;
  return stats_[arrival_order_[next_arrival_]].arrival;
}

void TenantScheduler::process_arrivals(Network& net) {
  HXSP_CHECK_MSG(started_, "process_arrivals before start");
  bool any = false;
  while (next_arrival_ < arrival_order_.size() &&
         stats_[arrival_order_[next_arrival_]].arrival <= net.now()) {
    waiting_.push_back(arrival_order_[next_arrival_++]);
    any = true;
  }
  if (any) try_admit(net);
}

void TenantScheduler::try_admit(Network& net) {
  // FIFO with skip: older jobs get first shot at the free servers, but a
  // job that does not fit leaves the rest of the queue eligible.
  for (std::size_t i = 0; i < waiting_.size();) {
    const std::size_t j = waiting_[i];
    std::vector<ServerId> servers =
        policy_->place(map_, stats_[j].demand, placement_rng_);
    if (servers.empty()) {
      ++i;
      continue;
    }
    map_.assign(static_cast<std::int32_t>(j), servers);
    bindings_[j] = servers;
    runs_[j]->bind(std::move(servers));
    stats_[j].admitted = net.now();
    waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(i));
    // launch() releases the job's root messages into their servers —
    // from here the engine carries it.
    runs_[j]->launch(net);
  }
}

std::size_t TenantScheduler::owner_of(std::int32_t m) const {
  const auto it = std::upper_bound(msg_base_.begin(), msg_base_.end(), m);
  HXSP_DCHECK(it != msg_base_.begin());
  return static_cast<std::size_t>(it - msg_base_.begin()) - 1;
}

void TenantScheduler::on_packet_consumed(std::int32_t m, Cycle now,
                                         Network& net) {
  const std::size_t j = owner_of(m);
  WorkloadRun& run = *runs_[j];
  run.on_packet_consumed(m, now, net);
  if (!run.complete() || stats_[j].completed >= 0) return;

  // Job complete: record its SLO numbers, free its servers, and give the
  // queue a chance — all inside the Consume callback, so an admitted
  // job's roots are generated before the next drain check.
  TenantJobStats& st = stats_[j];
  // One past the consume cycle: the convention every completion_time in
  // the repo uses (net.now() after a drain), so spans divide cleanly by
  // the isolated-run baseline and a sole full-fabric tenant's completed
  // equals the legacy workload kind's completion_time exactly.
  st.completed = now + 1;
  const LatencySummary lat = run.latency_summary();
  st.avg_msg_latency = lat.mean;
  st.p50_msg_latency = lat.p50;
  st.p99_msg_latency = lat.p99;
  map_.release(static_cast<std::int32_t>(j), bindings_[j]);
  ++finished_;
  if (!waiting_.empty()) try_admit(net);
}

} // namespace hxsp
