#include "harness/experiment.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>

#include "telemetry/capture.hpp"
#include "topology/computed_distance.hpp"
#include "util/jsonio.hpp"
#include "workload/run.hpp"

namespace hxsp {

// ---------------------------------------------------------------------------
// Spec JSON codec, derived from the field tables (util/fields.hpp): adding
// a spec field is one line in its struct's table, and the reader rejects
// unknown keys, so a misspelled knob fails instead of reading as off.
// ---------------------------------------------------------------------------

std::string spec_to_json(const ExperimentSpec& spec) {
  JsonWriter w;
  write_json(w, spec);
  return w.str();
}

ExperimentSpec spec_from_json_text(const std::string& text) {
  ExperimentSpec spec;
  read_json(JsonValue::parse(text), spec, "");
  return spec;
}

namespace {
/// Aborts unless \p link names a link of \p g; \p key is its key path in
/// the task record, for the message.
void check_link_id(const Graph& g, LinkId link, const std::string& key) {
  HXSP_CHECK_MSG(link >= 0 && link < g.num_links(),
                 (key + " = " + std::to_string(link) +
                  " is not a link id: the fabric has " +
                  std::to_string(g.num_links()) + " links")
                     .c_str());
}

/// Aborts unless \p offered, a task's offered load in phits/cycle/server,
/// is >= 0 (0 is legal: no server injects), naming the key and the value.
void check_offered(double offered) {
  if (offered >= 0.0) return;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", offered);
  detail::check_failed("offered >= 0", __FILE__, __LINE__,
                       ("offered = " + std::string(buf) + " is below 0").c_str());
}

/// Aborts unless every escape penalty lies in [0, 32767]: a penalty is
/// added to a queue score in int arithmetic and stored in Candidate's
/// int16 field, so a larger one overflows both.
void check_escape_penalties(const EscapePenalties& pen) {
  constexpr int kMax = std::numeric_limits<std::int16_t>::max();
  for_each_field<EscapePenalties>([&](const auto& f) {
    const int v = pen.*f.member;
    HXSP_CHECK_MSG(v >= 0 && v <= kMax,
                   ("spec.escape_penalties." + std::string(f.name) + " = " +
                    std::to_string(v) + " is outside [0, " +
                    std::to_string(kMax) + "]")
                       .c_str());
  });
}

/// Aborts unless the spec's topology and run-control fields describe a
/// fabric that can be built and a window that can be measured. Runs before
/// anything is built, so a bad value fails with its key instead of deep
/// inside a constructor.
void check_spec_shape(const ExperimentSpec& spec) {
  HXSP_CHECK_MSG(!spec.sides.empty(), "spec.sides = [] lists no dimension");
  for (std::size_t i = 0; i < spec.sides.size(); ++i)
    check_at_least(spec.sides[i], 2, "spec.sides[" + std::to_string(i) + "]");
  HXSP_CHECK_MSG(spec.servers_per_switch == -1 || spec.servers_per_switch >= 1,
                 ("spec.servers_per_switch = " +
                  std::to_string(spec.servers_per_switch) +
                  " is neither -1 (one per side) nor >= 1")
                     .c_str());
  check_at_least(spec.warmup, 0, "spec.warmup");
  check_at_least(spec.measure, 1, "spec.measure");
}
} // namespace

Experiment::Experiment(const ExperimentSpec& spec)
    : spec_(spec), rng_(spec.seed) {
  check_spec_shape(spec_);
  check_escape_penalties(spec_.escape_penalties);
  hx_ = std::make_unique<HyperX>(spec_.sides,
                                 spec_.resolved_servers_per_switch());
  for (std::size_t i = 0; i < spec_.fault_links.size(); ++i)
    check_link_id(hx_->graph(), spec_.fault_links[i],
                  "spec.fault_links[" + std::to_string(i) + "]");
  apply_faults(hx_->graph(), spec_.fault_links);
  HXSP_CHECK_MSG(hx_->graph().connected(),
                 "fault set disconnects the network; experiment undefined");

  // Dense reference table at small N, computed HyperX provider at large N
  // (see make_distance_provider): value-identical by the parity suite, so
  // the selection is purely a memory/time trade.
  dist_ = make_distance_provider(*hx_);
  mech_ = make_mechanism(spec_.mechanism);

  if (mech_->needs_escape()) {
    const SwitchId switches = hx_->graph().num_switches();
    HXSP_CHECK_MSG(spec_.escape_root >= 0 && spec_.escape_root < switches,
                   ("spec.escape_root = " + std::to_string(spec_.escape_root) +
                    " is not a switch id: the fabric has " +
                    std::to_string(switches) + " switches")
                       .c_str());
    EscapeUpDown::Config ecfg;
    ecfg.root = spec_.escape_root;
    ecfg.strict_phase = spec_.escape_strict_phase;
    ecfg.use_shortcuts = spec_.escape_shortcuts;
    ecfg.penalties = spec_.escape_penalties;
    escape_ = std::make_unique<EscapeUpDown>(hx_->graph(), ecfg);
  }

  Rng traffic_rng = rng_.fork(0x7F);
  traffic_ = make_traffic(spec_.pattern, *hx_, traffic_rng,
                          spec_.traffic_params);

  ctx_.graph = &hx_->graph();
  ctx_.hyperx = hx_.get();
  ctx_.dist = dist_.get();
  ctx_.escape = escape_.get();
  ctx_.num_vcs = spec_.sim.num_vcs;
}

void Experiment::set_step_threads(int threads) {
  HXSP_CHECK(threads >= 0);
  if (threads == 0) {
    step_pool_.reset();
    return;
  }
  if (!step_pool_ || step_pool_->size() != threads)
    step_pool_ = std::make_unique<ThreadPool>(threads);
}

namespace {
constexpr Cycle kNoAction = std::numeric_limits<Cycle>::max();
} // namespace

/// What simulate() does with one fresh Network beyond building it.
struct Experiment::RunPlan {
  std::uint64_t seed = 0;               ///< the Network's stream seed
  std::function<void(Network&)> start;  ///< the traffic source
  /// Unset: warmup, then the metrics window over spec_.measure cycles.
  /// Set: run until drained or this (absolute) cycle.
  std::optional<Cycle> drain_by;
  /// Timed actions (fault events, tenant arrivals): next_action() is the
  /// cycle of the next one (kNoAction when none is left), act() applies
  /// it. Actions due by the run's end fire at their cycle.
  std::function<Cycle()> next_action = [] { return kNoAction; };
  std::function<void(Network&)> act;
  TimeSeries* series = nullptr;  ///< consumed-phits series, or none
  bool observed = true;  ///< exports telemetry; false for reference runs
  bool drained = false;  ///< out: the drain run finished in time
};

std::unique_ptr<Network> Experiment::simulate(RunPlan& plan) {
  auto net = std::make_unique<Network>(ctx_, *mech_, *traffic_, spec_.sim,
                                       hx_->servers_per_switch(), plan.seed);
  net->set_step_pool(step_pool_.get());
  net->attach_timeseries(plan.series);
  plan.start(*net);

  // Fires every timed action due by cycle `until`, each at its cycle.
  auto fire_until = [&](Cycle until) {
    for (Cycle at = plan.next_action(); at != kNoAction && at <= until;
         at = plan.next_action()) {
      if (at > net->now()) net->run_cycles(at - net->now());
      plan.act(*net);
    }
  };
  if (plan.drain_by) {
    check_at_least(*plan.drain_by, 0, "max_cycles");
    fire_until(*plan.drain_by);
    plan.drained = net->run_until_drained(*plan.drain_by - net->now());
  } else {
    fire_until(spec_.warmup);
    net->run_cycles(spec_.warmup - net->now());  // n <= 0 runs nothing
    net->begin_window();
    const Cycle end = net->now() + spec_.measure;
    fire_until(end);
    net->run_cycles(end - net->now());
    net->end_window();
  }
  if (plan.observed && telemetry_capture_)
    net->export_telemetry(*telemetry_capture_);
  return net;
}

ResultRow Experiment::rate_row(double offered, const Network& net) const {
  ResultRow row;
  row.mechanism = mech_->name();
  row.pattern = spec_.pattern;
  row.offered = offered;
  row.from_metrics(net.metrics());
  return row;
}

ResultRow Experiment::run_load(double offered) {
  check_offered(offered);
  RunPlan plan;
  plan.seed = rng_.fork(0x10AD).next_u64();
  plan.start = [offered](Network& net) { net.set_offered_load(offered); };
  return rate_row(offered, *simulate(plan));
}

CompletionResult Experiment::run_completion(long packets_per_server,
                                            Cycle bucket_width,
                                            Cycle max_cycles) {
  check_at_least(bucket_width, 1, "bucket_width");
  CompletionResult res;
  res.mechanism = mech_->name();
  res.pattern = spec_.pattern;
  res.series = TimeSeries(bucket_width);
  CompletionSource source(packets_per_server);
  RunPlan plan;
  plan.seed = rng_.fork(0xC0).next_u64();
  plan.start = [&source](Network& net) { source.start(net); };
  plan.drain_by = max_cycles;
  plan.series = &res.series;
  const std::unique_ptr<Network> net = simulate(plan);
  res.num_servers = net->num_servers();
  res.drained = plan.drained;
  res.completion_time = net->now();
  return res;
}

WorkloadResult Experiment::run_workload(const WorkloadParams& params,
                                        Cycle bucket_width, Cycle max_cycles) {
  check_at_least(bucket_width, 1, "bucket_width");
  const std::uint64_t net_seed = rng_.fork(0xE0).next_u64();
  // The workload's own stream: independent of the network stream so a
  // randomized workload (shuffle, random) does not perturb allocator
  // tie-breaks, and forked per call so repeated runs are identical.
  Rng wl_rng = rng_.fork(0xE1);
  const ServerId num_servers = hx_->num_servers();
  const std::unique_ptr<Workload> wl = make_workload(params);
  WorkloadRun run(wl->build(num_servers, wl_rng));

  WorkloadResult res;
  res.mechanism = mech_->name();
  res.workload = wl->name();
  res.series = TimeSeries(bucket_width);
  res.num_servers = num_servers;
  res.num_messages = static_cast<long>(run.num_messages());
  res.total_packets = run.total_packets();
  RunPlan plan;
  plan.seed = net_seed;
  plan.start = [&run](Network& net) { run.start(net); };
  plan.drain_by = max_cycles;
  plan.series = &res.series;
  const std::unique_ptr<Network> net = simulate(plan);
  res.completion_time = net->now();
  res.drained = plan.drained;
  HXSP_DCHECK(res.drained == run.complete());
  res.phase_cycles = run.phase_done();

  // Message-latency tail: release-to-consumed, over completed messages.
  const LatencySummary lat = run.latency_summary();
  res.avg_msg_latency = lat.mean;
  res.p50_msg_latency = lat.p50;
  res.p99_msg_latency = lat.p99;
  return res;
}

MultitenantResult Experiment::run_multitenant(const MultitenantParams& params,
                                              Cycle bucket_width,
                                              Cycle max_cycles) {
  check_at_least(bucket_width, 1, "bucket_width");
  const std::uint64_t net_seed = rng_.fork(0xE0).next_u64();
  // One build stream, consumed in job order, and the same network-seed
  // fork as run_workload: a single job spanning the whole fabric gets
  // byte-identical messages and a byte-identical engine stream to the
  // legacy workload mode (the golden bridge tests lock this).
  Rng wl_rng = rng_.fork(0xE1);
  std::vector<MessageList> job_msgs;
  job_msgs.reserve(params.jobs.size());
  for (const JobSpec& job : params.jobs)
    job_msgs.push_back(make_workload(job.workload)->build(job.demand, wl_rng));
  std::vector<MessageList> baseline_msgs;
  if (params.isolated_baseline) baseline_msgs = job_msgs;

  TenantScheduler sched(params, std::move(job_msgs), hx_->num_servers(),
                        hx_->servers_per_switch(), rng_.fork(0xE3));

  MultitenantResult res;
  res.mechanism = mech_->name();
  res.placement = params.placement;
  res.series = TimeSeries(bucket_width);
  res.num_servers = hx_->num_servers();
  res.num_jobs = static_cast<long>(params.jobs.size());
  RunPlan plan;
  plan.seed = net_seed;
  plan.start = [&sched](Network& net) { sched.start(net); };
  plan.drain_by = max_cycles;
  plan.next_action = [&sched] {
    const Cycle at = sched.next_arrival();
    return at < 0 ? kNoAction : at;
  };
  plan.act = [&sched](Network& net) { sched.process_arrivals(net); };
  plan.series = &res.series;
  const std::unique_ptr<Network> net = simulate(plan);
  res.completion_time = net->now();
  res.drained = plan.drained && sched.all_done();
  res.jobs = sched.stats();
  for (const TenantJobStats& st : res.jobs)
    res.total_packets += st.total_packets;

  if (params.isolated_baseline) {
    // Per-job isolated reference: same messages, same concrete placement,
    // an otherwise empty fabric — the slowdown column is pure
    // interference, not placement quality. These are reference runs, not
    // part of the observed system: no series, no telemetry.
    const Rng base_rng = rng_.fork(0xE4);
    for (std::size_t j = 0; j < res.jobs.size(); ++j) {
      TenantJobStats& st = res.jobs[j];
      if (st.admitted < 0) continue;
      WorkloadRun run(baseline_msgs[j]);
      run.bind(sched.placement_of(static_cast<int>(j)));
      RunPlan alone;
      alone.seed = base_rng.fork(static_cast<std::uint64_t>(j)).next_u64();
      alone.start = [&run](Network& net) { run.start(net); };
      alone.drain_by = max_cycles;
      alone.observed = false;
      const Cycle span = simulate(alone)->now();
      if (!run.complete()) continue;
      st.isolated_span = span;
      if (st.completed >= 0 && st.isolated_span > 0)
        st.slowdown = static_cast<double>(st.completed - st.admitted) /
                      static_cast<double>(st.isolated_span);
    }
  }
  return res;
}

DynamicResult Experiment::run_load_dynamic(double offered,
                                           std::vector<FaultEvent> events) {
  check_offered(offered);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string key = "events[" + std::to_string(i) + "]";
    check_link_id(hx_->graph(), events[i].link, key + ".link");
    check_at_least(events[i].at, 0, key + ".at");
  }
  std::sort(events.begin(), events.end(),
            [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });

  auto rebuild_tables = [&] {
    // The fault action checks connectivity before rebuilding, but guard
    // here too: this lambda is also the restore path, and a rebuild on a
    // disconnected graph would poison diameter()-derived TTL bounds.
    HXSP_CHECK_MSG(hx_->graph().connected(),
                   "table rebuild on a disconnected network");
    dist_->rebuild();
    if (escape_) {
      EscapeUpDown::Config ecfg = escape_->config();
      *escape_ = EscapeUpDown(hx_->graph(), ecfg);
    }
  };

  DynamicResult res;
  std::size_t next = 0;
  std::vector<LinkId> applied;
  RunPlan plan;
  plan.seed = rng_.fork(0xD1).next_u64();
  plan.start = [offered](Network& net) { net.set_offered_load(offered); };
  plan.next_action = [&] {
    return next < events.size() ? events[next].at : kNoAction;
  };
  plan.act = [&](Network& net) {
    const LinkId link = events[next++].link;
    if (!hx_->graph().link_alive(link)) return;  // skip already-dead links
    hx_->graph().fail_link(link);
    HXSP_CHECK_MSG(hx_->graph().connected(),
                   "dynamic fault would disconnect the network");
    rebuild_tables();
    net.on_link_failed(link);
    applied.push_back(link);
  };
  plan.series = &res.series;
  const std::unique_ptr<Network> net = simulate(plan);

  res.num_servers = net->num_servers();
  res.row = rate_row(offered, *net);
  res.dropped = net->dropped_packets();

  // Restore the injected faults and the tables so later runs see the
  // spec's static configuration again.
  for (LinkId link : applied) hx_->graph().restore_link(link);
  if (!applied.empty()) rebuild_tables();
  return res;
}

int Experiment::walk_route(SwitchId src, SwitchId dst, int max_hops) {
  Packet pkt;
  pkt.id = -1;
  pkt.dst_server = hx_->server_at(dst, 0);
  pkt.src_switch = src;
  pkt.dst_switch = dst;
  Rng walk_rng = rng_.fork(0x3A1C);
  mech_->on_inject(ctx_, pkt, walk_rng);

  SwitchId cur = src;
  mech_->on_arrival(ctx_, pkt, cur);
  int hops = 0;
  std::vector<Candidate> cand;
  while (cur != dst) {
    if (hops >= max_hops) return -1;
    cand.clear();
    mech_->candidates(ctx_, pkt, cur, cand);
    if (cand.empty()) return -1;
    // Deterministic greedy walk: lowest penalty, then lowest port, then
    // lowest VC (an entry's lowest is its vc_lo).
    const Candidate* best = &cand.front();
    for (const Candidate& c : cand) {
      if (c.penalty < best->penalty ||
          (c.penalty == best->penalty &&
           (c.port < best->port ||
            (c.port == best->port && c.vc_lo < best->vc_lo))))
        best = &c;
    }
    mech_->commit_hop(ctx_, pkt, cur, *best, best->vc_lo);
    cur = ctx_.graph->port(cur, best->port).neighbor;
    mech_->on_arrival(ctx_, pkt, cur);
    ++hops;
  }
  return hops;
}

} // namespace hxsp
