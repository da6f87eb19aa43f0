/// \file hxsp_bench.cpp
/// One process of the repository benchmark (see README.md beside this
/// file). run.py starts a fresh process for every rep, so each rep pays
/// the same allocator, page-fault and cache warm-up and none inherits
/// another's heap. Each invocation does one thing and prints one JSON
/// object on stdout:
///
///   emit  --workload=W --seed=S [--smoke] --out=F
///         writes workload W's TaskSpec, derived from the seed only (the
///         Fig. 6 sweep's manifest comes from fig06_random_faults
///         instead)
///   rep   --input=F [--jobs=N] [--threads=N] [--csv=F]
///         one untraced rep: Experiment construction (setup_s), then the
///         timed call (wall_s, cpu_s), peak RSS and the outcome fingerprint
///   probe --input=F [--threads=N] [--telemetry]
///         run_task over the sampled tasks, with telemetry off or on
///   trace --input=F --spans=F --csv=F [--jobs=N] [--threads=N]
///         one traced rep: a span around every layer call the rep makes,
///         written as Chrome-trace JSON, plus per-layer totals
///   info  build type and compiler of this binary
///
/// An input F is a TaskSpec object (a single-task workload) or a manifest
/// array (a sweep). The benchmark calls public library functions only.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "harness/taskspec.hpp"
#include "metrics/resultsink.hpp"
#include "routing/factory.hpp"
#include "telemetry/capture.hpp"
#include "topology/computed_distance.hpp"
#include "topology/faults.hpp"
#include "traffic/pattern.hpp"
#include "util/fileio.hpp"
#include "util/jsonio.hpp"
#include "util/options.hpp"
#include "util/thread_pool.hpp"
#include "workload/run.hpp"

#ifndef HXSP_BENCH_BUILD_TYPE
#define HXSP_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef HXSP_BENCH_COMPILER
#define HXSP_BENCH_COMPILER "unknown"
#endif

using namespace hxsp;

namespace {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process. Step-pool and sweep workers are
/// included, which is what makes cpu_s comparable with wall_s on a
/// multi-core host.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// FNV-1a 64 of \p text as 16 hex digits.
std::string fingerprint(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

void print_json(const JsonWriter& w) {
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

/// Set-up is timed at least this many times per rep, so one
/// construction's page faults do not decide the number: an untraced rep
/// reports the median, the traced rep the mean of each layer's build.
constexpr int kSetupReps = 3;
/// An untraced rep also keeps constructing until this much time is spent:
/// a 10 ms build's time jumps by 40% for stretches of a few constructions
/// on a shared host, and the median of a handful would follow the jumps.
constexpr double kSetupSeconds = 0.25;

/// Whether an untraced rep times one more construction.
bool more_setups(const std::vector<double>& setups) {
  double spent = 0;
  for (const double s : setups) spent += s;
  return static_cast<int>(setups.size()) < kSetupReps || spent < kSetupSeconds;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// A 2-D or 3-D HyperX spec with the first \p faults links of the seeded
/// random fault sequence failed, derived the way fig06_random_faults
/// derives its fault sets (sequence seed = seed + 1000).
ExperimentSpec faulted_spec(std::vector<int> sides, int sps,
                            const std::string& mechanism, int vcs, int faults,
                            std::uint64_t seed) {
  ExperimentSpec s;
  s.sides = std::move(sides);
  s.servers_per_switch = sps;
  s.mechanism = mechanism;
  s.pattern = "uniform";
  s.sim.num_vcs = vcs;
  s.seed = seed;
  const HyperX scratch(s.sides, sps);
  Rng frng(seed + 1000);
  const std::vector<LinkId> seq = random_fault_sequence(scratch.graph(), frng);
  HXSP_CHECK(faults <= static_cast<int>(seq.size()));
  s.fault_links.assign(seq.begin(), seq.begin() + faults);
  return s;
}

/// The single-task workloads. --smoke shrinks each to a few hundred
/// milliseconds while keeping its kind, mechanism and task shape.
TaskSpec emit_task(const std::string& workload, std::uint64_t seed, bool smoke) {
  TaskSpec task;
  if (workload == "paper2d_sat") {
    // One paper-scale Fig. 6 cell: 16x16, 16 servers per switch, PolSP.
    const int side = smoke ? 4 : 16;
    ExperimentSpec s = faulted_spec({side, side}, side, "polsp", 4,
                                    smoke ? 2 : 50, seed);
    s.warmup = smoke ? 200 : 1000;
    s.measure = smoke ? 200 : 1000;
    task = TaskSpec::rate(s, 1.0);
  } else if (workload == "paper3d_allreduce") {
    // A ring all-reduce over the paper's 8x8x8, one server per switch.
    const int side = smoke ? 4 : 8;
    const ExperimentSpec s = faulted_spec({side, side, side}, 1, "polsp", 4,
                                          smoke ? 2 : 40, seed);
    WorkloadParams p;
    p.name = "ring_allreduce";
    p.msg_packets = smoke ? 1 : 2;
    task = TaskSpec::workload(s, p, /*bucket_width=*/1000,
                              /*max_cycles=*/10000000);
  } else if (workload == "million_min") {
    // 32x32x32 with 32 servers per switch = 1,048,576 servers. Lean
    // buffers and a low load keep memory to the packets in flight; too
    // many switches for a dense distance table or an escape subnetwork.
    const int side = smoke ? 8 : 32;
    ExperimentSpec s = faulted_spec({side, side, side}, side, "minimal", 2,
                                    smoke ? 4 : 16, seed);
    s.sim.packet_length = 4;
    s.sim.input_buffer_packets = 2;
    s.sim.output_buffer_packets = 1;
    s.sim.server_queue_packets = 2;
    s.warmup = 10;
    s.measure = smoke ? 10 : 20;
    task = TaskSpec::rate(s, 0.03);
  } else {
    HXSP_CHECK_MSG(false, ("unknown workload: " + workload).c_str());
  }
  task.id = make_task_id(workload, 0);
  return task;
}

/// A benchmark input: its tasks, and whether they came as a manifest.
struct Input {
  std::vector<TaskSpec> tasks;
  bool sweep = false;
};

Input load_input(const std::string& path) {
  const std::string text = read_file_or_die(path);
  Input in;
  in.sweep = JsonValue::parse(text).is_array();
  if (in.sweep)
    in.tasks = manifest_from_json(text);
  else
    in.tasks.push_back(TaskSpec::from_json_text(text));
  HXSP_CHECK_MSG(!in.tasks.empty(), "benchmark input holds no task");
  return in;
}

/// Tasks the probe and the traced rep run one at a time: every 7th task
/// of a sweep (which spreads them over its dimensions, fault counts and
/// patterns), or the single task.
std::vector<std::size_t> sampled(const Input& in) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < in.tasks.size(); i += in.sweep ? 7 : 1)
    idx.push_back(i);
  return idx;
}

// ---------------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------------

/// What a run simulated: the benchmark's simulated metrics plus the
/// canonical text its fingerprint hashes. Runs of one input must produce
/// identical text on any host and at any thread count.
struct Outcome {
  double accepted_load = 0;  ///< phits/cycle/server
  double mean_latency = 0;   ///< cycles; message latency for workloads
  double p99_latency = 0;    ///< cycles; message latency for workloads
  std::int64_t cycles = 0;   ///< simulated cycles
  std::int64_t packets = 0;  ///< packets consumed
  bool drained = true;       ///< a workload finished before its deadline
  std::string text;
};

Outcome outcome_of(const TaskSpec& task, const TaskResult& result) {
  Outcome o;
  char buf[512];
  if (const ResultRow* r = task_result_row(result)) {
    o.accepted_load = r->accepted;
    o.mean_latency = r->avg_latency;
    o.p99_latency = static_cast<double>(r->p99_latency);
    o.cycles = task.spec.warmup + task.spec.measure;
    o.packets = r->packets;
    std::snprintf(buf, sizeof buf,
                  "row %s %s %.17g %.17g %.17g %.17g %.17g %.17g %.17g %" PRId64
                  " %" PRId64 " %" PRId64,
                  r->mechanism.c_str(), r->pattern.c_str(), r->offered,
                  r->generated, r->accepted, r->avg_latency, r->jain,
                  r->escape_frac, r->forced_frac,
                  static_cast<std::int64_t>(r->p99_latency),
                  static_cast<std::int64_t>(r->cycles), r->packets);
    o.text = buf;
    return o;
  }
  const auto* w = std::get_if<WorkloadResult>(&result);
  HXSP_CHECK_MSG(w != nullptr, "the benchmark runs rate and workload tasks only");
  o.drained = w->drained;
  o.cycles = w->completion_time;
  o.packets = w->total_packets;
  o.mean_latency = w->avg_msg_latency;
  o.p99_latency = static_cast<double>(w->p99_msg_latency);
  if (w->completion_time > 0 && w->num_servers > 0)
    o.accepted_load = static_cast<double>(w->total_packets) *
                      task.spec.sim.packet_length /
                      (static_cast<double>(w->completion_time) * w->num_servers);
  std::snprintf(buf, sizeof buf,
                "workload %s %s %d %" PRId64 " %ld %ld %.17g %" PRId64
                " %" PRId64 " phases",
                w->mechanism.c_str(), w->workload.c_str(), w->drained ? 1 : 0,
                static_cast<std::int64_t>(w->completion_time), w->num_messages,
                w->total_packets, w->avg_msg_latency,
                static_cast<std::int64_t>(w->p50_msg_latency),
                static_cast<std::int64_t>(w->p99_msg_latency));
  o.text = buf;
  for (const Cycle c : w->phase_cycles)
    o.text += " " + std::to_string(static_cast<std::int64_t>(c));
  return o;
}

/// A sweep's outcome: row means of the simulated metrics, and the CSV
/// bytes the sweep wrote as the fingerprinted text.
Outcome sweep_outcome(const std::vector<ResultRecord>& records,
                      std::string csv) {
  HXSP_CHECK_MSG(!records.empty(), "the sweep produced no records");
  Outcome o;
  for (const ResultRecord& rec : records) {
    o.accepted_load += rec.accepted;
    o.mean_latency += rec.avg_latency;
    o.p99_latency += static_cast<double>(rec.p99_latency);
    o.cycles += rec.cycles;
    o.packets += rec.packets;
  }
  o.accepted_load /= static_cast<double>(records.size());
  o.mean_latency /= static_cast<double>(records.size());
  o.p99_latency /= static_cast<double>(records.size());
  o.text = std::move(csv);
  return o;
}

void put_outcome(JsonWriter& w, const Outcome& o) {
  w.key("accepted_load").value(o.accepted_load);
  w.key("mean_latency_cycles").value(o.mean_latency);
  w.key("p99_latency_cycles").value(o.p99_latency);
  w.key("sim_cycles").value(o.cycles);
  w.key("sim_packets").value(o.packets);
  w.key("drained").value(o.drained);
  w.key("fingerprint").value(fingerprint(o.text));
}

/// Per-task fingerprints of the sampled tasks, in task order.
void put_fingerprints(JsonWriter& w, const std::vector<std::string>& prints) {
  w.key("task_fingerprints").begin_array();
  for (const std::string& p : prints) w.value(p);
  w.end_array();
}

/// The timed call of a single-task rep: what run_task does once the
/// Experiment exists, so the rep can time construction separately.
TaskResult run_on(Experiment& e, const TaskSpec& task) {
  if (task.kind == TaskKind::kWorkload)
    return e.run_workload(task.workload_params, task.bucket_width,
                          task.max_cycles);
  HXSP_CHECK_MSG(task.kind == TaskKind::kRate,
                 "the benchmark runs rate and workload tasks only");
  return e.run_load(task.offered);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A span's layer: its name up to the first dot ("sim.alloc" -> "sim").
std::string layer_of(const std::string& span) {
  return span.substr(0, span.find('.'));
}

/// In-memory span log of the traced rep: name, start, end and parent of
/// every layer call, written out once the rep ends.
class Spans {
 public:
  Spans() : t0_(wall_now()) {}

  /// Opens a span under the innermost open one and returns its index.
  std::size_t open(std::string name) {
    const long parent = stack_.empty() ? -1L : static_cast<long>(stack_.back());
    spans_.push_back({std::move(name), wall_now(), 0.0, parent, false});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t i) {
    HXSP_CHECK(!stack_.empty() && stack_.back() == i);
    stack_.pop_back();
    spans_[i].end = wall_now();
  }

  /// Adds a child of \p parent standing for \p seconds accumulated over
  /// many short intervals (the engine's per-phase totals), placed at
  /// \p start so that consecutive totals tile the parent.
  void add_total(std::size_t parent, std::string name, double start,
                 double seconds) {
    spans_.push_back({std::move(name), start, start + seconds,
                      static_cast<long>(parent), true});
  }

  double start_of(std::size_t i) const { return spans_[i].start; }

  /// Summed duration of every span called \p name.
  double total(const std::string& name) const {
    double sum = 0;
    for (const Span& s : spans_)
      if (s.name == name) sum += s.end - s.start;
    return sum;
  }

  /// Summed duration of the direct children of every span called \p name.
  double children_total(const std::string& name) const {
    double sum = 0;
    for (const Span& s : spans_)
      if (s.parent >= 0 && spans_[static_cast<std::size_t>(s.parent)].name == name)
        sum += s.end - s.start;
    return sum;
  }

  /// Self time per layer: each span's duration minus its children's.
  std::map<std::string, double> self_by_layer() const {
    std::map<std::string, double> layers;
    for (const Span& s : spans_) {
      const double d = s.end - s.start;
      layers[layer_of(s.name)] += d;
      if (s.parent >= 0)
        layers[layer_of(spans_[static_cast<std::size_t>(s.parent)].name)] -= d;
    }
    return layers;
  }

  /// Chrome trace-event JSON (the format hxsp_runner --trace-out writes),
  /// loadable in Perfetto and chrome://tracing.
  std::string chrome_json() const {
    std::string out =
        "{\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"args\":{\"name\":\"hxsp_bench trace\"}}";
    char buf[160];
    for (const Span& s : spans_) {
      out += ",\n{\"name\":\"" + json_escape_string(s.name) + "\",\"cat\":\"" +
             json_escape_string(layer_of(s.name)) + "\",\"ph\":\"X\"";
      std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1",
                    1e6 * (s.start - t0_), 1e6 * (s.end - s.start));
      out += buf;
      out += ",\"args\":{\"parent\":\"";
      if (s.parent >= 0)
        out += json_escape_string(spans_[static_cast<std::size_t>(s.parent)].name);
      out += s.accumulated ? "\",\"accumulated\":true}}" : "\"}}";
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
  }

 private:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    long parent = -1;          ///< index into spans_, -1 for a root
    bool accumulated = false;  ///< a per-phase total, not one interval
  };

  double t0_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Opens a span for the lifetime of the scope.
class Scope {
 public:
  Scope(Spans& spans, std::string name)
      : spans_(spans), index_(spans.open(std::move(name))) {}
  ~Scope() { spans_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  std::size_t index_;
};

/// Counters the traced rep gathers alongside its spans.
struct LayerTotals {
  double run_cpu = 0;   ///< process CPU during harness.run spans
  double step_cpu = 0;  ///< process CPU during sim.step spans
  std::int64_t cycles = 0, packets = 0;
  long walk_hops = 0;
};

/// Builds again what the Experiment constructor builds, one layer call
/// per span, so set-up time splits by layer (the constructor is one
/// opaque call). The objects are dropped; the run uses the Experiment's.
void replay_setup(Spans& sp, const ExperimentSpec& spec) {
  Scope replay(sp, "bench.setup_replay");
  std::unique_ptr<HyperX> hx;
  std::unique_ptr<DistanceProvider> dist;
  std::unique_ptr<RoutingMechanism> mech;
  std::unique_ptr<EscapeUpDown> escape;
  std::unique_ptr<TrafficPattern> traffic;
  {
    Scope s(sp, "topology.build");
    hx = std::make_unique<HyperX>(spec.sides, spec.resolved_servers_per_switch());
    apply_faults(hx->graph(), spec.fault_links);
    HXSP_CHECK(hx->graph().connected());
  }
  {
    Scope s(sp, "topology.distance_build");
    dist = make_distance_provider(*hx);
  }
  {
    Scope s(sp, "routing.build");
    mech = make_mechanism(spec.mechanism);
    if (mech->needs_escape()) {
      Scope c(sp, "core.escape_build");
      EscapeUpDown::Config cfg;
      cfg.root = spec.escape_root;
      cfg.strict_phase = spec.escape_strict_phase;
      cfg.use_shortcuts = spec.escape_shortcuts;
      cfg.penalties = spec.escape_penalties;
      escape = std::make_unique<EscapeUpDown>(hx->graph(), cfg);
    }
  }
  {
    Scope s(sp, "workload.traffic_build");
    Rng traffic_rng = Rng(spec.seed).fork(0x7F);
    traffic = make_traffic(spec.pattern, *hx, traffic_rng, spec.traffic_params);
  }
}

/// The traced equivalent of Experiment::run_load / run_workload: the same
/// Network, streams and calls, built here from the Experiment's context
/// so the engine's phase clock can be attached. The stream tags mirror
/// the Experiment's (0x10AD for rate runs; 0xE0 and 0xE1 for workload
/// runs), so the outcome must equal the untraced reps'.
TaskResult traced_run(Spans& sp, Experiment& e, const TaskSpec& task,
                      ThreadPool* pool, LayerTotals& lt) {
  const ExperimentSpec& spec = task.spec;
  const bool message_mode = task.kind == TaskKind::kWorkload;
  HXSP_CHECK_MSG(message_mode || task.kind == TaskKind::kRate,
                 "the benchmark runs rate and workload tasks only");
  const Rng base(spec.seed);
  std::unique_ptr<Network> net;
  {
    Scope s(sp, "sim.network_build");
    net = std::make_unique<Network>(
        e.context(), e.mechanism(), e.traffic(), spec.sim,
        spec.resolved_servers_per_switch(),
        base.fork(message_mode ? 0xE0 : 0x10AD).next_u64());
  }
  net->set_step_pool(pool);
  StepPhaseTimes phases(&wall_now);
  net->attach_phase_times(&phases);

  std::unique_ptr<Workload> workload;
  std::unique_ptr<WorkloadRun> run;
  WorkloadResult wres;
  if (message_mode) {
    {
      Scope s(sp, "workload.build");
      Rng wl_rng = base.fork(0xE1);
      workload = make_workload(task.workload_params);
      std::vector<Message> msgs = workload->build(net->num_servers(), wl_rng);
      validate_workload(msgs, net->num_servers());
      run = std::make_unique<WorkloadRun>(std::move(msgs));
    }
    wres.mechanism = e.mechanism().name();
    wres.workload = workload->name();
    wres.series = TimeSeries(task.bucket_width);
    wres.num_servers = net->num_servers();
    wres.num_messages = static_cast<long>(run->num_messages());
    wres.total_packets = run->total_packets();
    net->attach_timeseries(&wres.series);
    run->start(*net);
  } else {
    net->set_offered_load(task.offered);
  }

  const std::size_t step = sp.open("sim.step");
  const double c0 = cpu_now();
  if (message_mode) {
    wres.drained = net->run_until_drained(task.max_cycles);
  } else {
    net->run_cycles(spec.warmup);
    net->begin_window();
    net->run_cycles(spec.measure);
    net->end_window();
  }
  lt.step_cpu += cpu_now() - c0;
  sp.close(step);
  double at = sp.start_of(step);
  const std::pair<const char*, double> totals[] = {
      {"sim.events", phases.events},
      {"sim.generation", phases.generation},
      {"sim.alloc", phases.alloc},
      {"sim.link", phases.link}};
  for (const auto& [name, seconds] : totals) {
    sp.add_total(step, name, at, seconds);
    at += seconds;
  }
  lt.cycles += net->now();
  lt.packets += net->metrics().total_consumed_packets();

  if (!message_mode) {
    ResultRow row;
    row.mechanism = e.mechanism().name();
    row.pattern = spec.pattern;
    row.offered = task.offered;
    row.from_metrics(net->metrics());
    return row;
  }
  wres.completion_time = net->now();
  wres.phase_cycles = run->phase_done();
  std::vector<Cycle> lat = run->completed_latencies();
  if (!lat.empty()) {
    std::sort(lat.begin(), lat.end());
    double sum = 0;
    for (const Cycle l : lat) sum += static_cast<double>(l);
    wres.avg_msg_latency = sum / static_cast<double>(lat.size());
    wres.p50_msg_latency = lat[lat.size() / 2];
    wres.p99_msg_latency =
        lat[static_cast<std::size_t>(0.99 * static_cast<double>(lat.size() - 1))];
  }
  return wres;
}

/// Zero-load route walks between 4096 seeded switch pairs: the routing
/// layer's cost per hop with no simulation around it.
void walk_probe(Spans& sp, Experiment& e, LayerTotals& lt) {
  const SwitchId n = e.hyperx().num_switches();
  Rng rng = Rng(e.spec().seed).fork(0xB0);
  std::vector<std::pair<SwitchId, SwitchId>> pairs;
  for (int i = 0; i < 4096; ++i) {
    const auto a = static_cast<SwitchId>(rng.next_below(static_cast<std::uint64_t>(n)));
    auto b = static_cast<SwitchId>(rng.next_below(static_cast<std::uint64_t>(n - 1)));
    if (b >= a) ++b;
    pairs.emplace_back(a, b);
  }
  Scope s(sp, "routing.walk");
  for (const auto& [a, b] : pairs) {
    const int hops = e.walk_route(a, b, 64);
    HXSP_CHECK_MSG(hops > 0, "a route walk did not reach its destination");
    lt.walk_hops += hops;
  }
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

int cmd_emit(const Options& opt) {
  const std::string workload = opt.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  const bool smoke = opt.get_bool("smoke", false);
  const std::string out = opt.get("out", "");
  opt.warn_unknown();
  HXSP_CHECK_MSG(!out.empty(), "emit needs --out");
  HXSP_CHECK_MSG(write_whole_file(out, emit_task(workload, seed, smoke).to_json()),
                 "cannot write the benchmark input");
  JsonWriter w;
  w.begin_object().key("wrote").value(out).end_object();
  print_json(w);
  return 0;
}

int cmd_rep(const Options& opt) {
  const Input in = load_input(opt.get("input", ""));
  const int jobs = static_cast<int>(opt.get_int("jobs", 1));
  const int threads = static_cast<int>(opt.get_int("threads", 0));
  const std::string csv = opt.get("csv", "");
  opt.warn_unknown();

  std::vector<double> setups;
  double wall = 0, cpu = 0;
  Outcome o;
  if (in.sweep) {
    HXSP_CHECK_MSG(!csv.empty(), "a sweep rep writes its CSV: pass --csv");
    // A sweep's set-up is spread over its tasks; it is timed here as the
    // Experiment construction of every task, one after another.
    while (more_setups(setups)) {
      const double s0 = wall_now();
      for (const TaskSpec& t : in.tasks) {
        const Experiment e(t.spec);
      }
      setups.push_back(wall_now() - s0);
    }
    std::remove(csv.c_str());  // run_manifest resumes from an existing file
    RunnerOptions ro;
    ro.jobs = jobs;
    ro.step_threads = threads;
    ro.csv_path = csv;
    ro.quiet = true;
    const double c0 = cpu_now();
    const double w0 = wall_now();
    const RunnerReport report = run_manifest(in.tasks, ro);
    wall = wall_now() - w0;
    cpu = cpu_now() - c0;
    const std::string text = read_file_or_die(csv);
    HXSP_CHECK_MSG(report.records.size() == in.tasks.size() &&
                       ResultSink::parse_csv(text) == report.records,
                   "the sweep's CSV does not hold one record per task");
    o = sweep_outcome(report.records, text);
  } else {
    const TaskSpec& task = in.tasks.front();
    std::unique_ptr<Experiment> e;
    while (more_setups(setups)) {
      e.reset();
      const double s0 = wall_now();
      e = std::make_unique<Experiment>(task.spec);
      setups.push_back(wall_now() - s0);
    }
    if (threads > 0) e->set_step_threads(threads);
    const double c0 = cpu_now();
    const double w0 = wall_now();
    const TaskResult result = run_on(*e, task);
    wall = wall_now() - w0;
    cpu = cpu_now() - c0;
    o = outcome_of(task, result);
  }
  JsonWriter w;
  w.begin_object();
  w.key("setup_s").value(median(setups));
  w.key("wall_s").value(wall);
  w.key("cpu_s").value(cpu);
  w.key("peak_rss_mb").value(peak_rss_mb());
  put_outcome(w, o);
  w.end_object();
  print_json(w);
  return 0;
}

int cmd_probe(const Options& opt) {
  const Input in = load_input(opt.get("input", ""));
  const int threads = static_cast<int>(opt.get_int("threads", 0));
  const bool telemetry = opt.get_bool("telemetry", false);
  opt.warn_unknown();

  std::vector<double> times;
  std::vector<std::string> prints;
  for (const std::size_t i : sampled(in)) {
    TaskSpec task = in.tasks[i];
    TelemetryCapture capture;
    if (telemetry) {
      // 64-cycle telemetry windows, every 16th packet traced.
      task.spec.sim.telemetry_window = 64;
      task.spec.sim.trace_sample = 16;
    }
    {
      // Like the traced rep: first page faults fall outside the timing.
      const Experiment first(task.spec);
    }
    const double t0 = wall_now();
    const TaskResult result = run_task(task, threads, telemetry ? &capture : nullptr);
    times.push_back(wall_now() - t0);
    prints.push_back(fingerprint(outcome_of(task, result).text));
  }
  JsonWriter w;
  w.begin_object();
  w.key("task_s").begin_array();
  for (const double t : times) w.value(t);
  w.end_array();
  put_fingerprints(w, prints);
  w.key("peak_rss_mb").value(peak_rss_mb());
  w.end_object();
  print_json(w);
  return 0;
}

int cmd_trace(const Options& opt) {
  const Input in = load_input(opt.get("input", ""));
  const int jobs = static_cast<int>(opt.get_int("jobs", 1));
  const int threads = static_cast<int>(opt.get_int("threads", 0));
  const std::string spans_path = opt.get("spans", "");
  const std::string csv_path = opt.get("csv", "");
  opt.warn_unknown();
  HXSP_CHECK_MSG(!spans_path.empty() && !csv_path.empty(),
                 "trace needs --spans and --csv");

  const std::unique_ptr<ThreadPool> pool =
      threads > 0 ? std::make_unique<ThreadPool>(threads) : nullptr;
  Spans sp;
  LayerTotals lt;
  std::vector<std::string> prints;
  double worker_util = 0;
  std::vector<ResultRecord> records;
  std::string csv;
  Outcome outcome;
  {
    Scope root(sp, "bench.rep");
    if (in.sweep) {
      RunnerOptions ro;
      ro.jobs = jobs;
      ro.step_threads = threads;
      ro.quiet = true;
      const std::size_t s = sp.open("harness.run_manifest");
      const double c0 = cpu_now();
      const double w0 = wall_now();
      records = run_manifest(in.tasks, ro).records;
      worker_util = (cpu_now() - c0) / (jobs * (wall_now() - w0));
      sp.close(s);
    }
    for (const std::size_t i : sampled(in)) {
      const TaskSpec& task = in.tasks[i];
      Scope t(sp, "bench.task");
      {
        // As in an untraced rep, set-up is timed after a first
        // construction has paid the process's first-touch page faults.
        Scope warm(sp, "bench.warmup");
        const Experiment first(task.spec);
      }
      // The layer replay and the constructor alternate kSetupReps times,
      // so comparing them does not rest on one pair of page-fault-bound
      // builds. Set-up metrics are per construction: totals / kSetupReps.
      std::unique_ptr<Experiment> e;
      for (int r = 0; r < kSetupReps; ++r) {
        e.reset();
        replay_setup(sp, task.spec);
        Scope s(sp, "harness.setup");
        e = std::make_unique<Experiment>(task.spec);
      }
      TaskResult result;
      {
        Scope s(sp, "harness.run");
        const double c0 = cpu_now();
        result = traced_run(sp, *e, task, pool.get(), lt);
        lt.run_cpu += cpu_now() - c0;
      }
      const Outcome o = outcome_of(task, result);
      prints.push_back(fingerprint(o.text));
      if (in.sweep) {
        HXSP_CHECK_MSG(ResultSink::csv_line(make_record(task, result)) ==
                           ResultSink::csv_line(records[i]),
                       "a traced sweep task disagrees with the sweep's row");
      } else {
        records = make_records(task, result);
        outcome = o;
      }
      walk_probe(sp, *e, lt);
    }
    if (!in.sweep)
      worker_util = lt.run_cpu / (std::max(1, threads) * sp.total("harness.run"));
    Scope s(sp, "metrics.result_write");
    csv = ResultSink::csv(records);
    HXSP_CHECK_MSG(write_whole_file(csv_path, csv), "cannot write the result CSV");
  }
  HXSP_CHECK_MSG(write_whole_file(spans_path, sp.chrome_json()),
                 "cannot write the span trace");

  const double per_setup = 1.0 / kSetupReps;
  const double setup_s = per_setup * sp.total("harness.setup");
  JsonWriter w;
  w.begin_object();
  put_outcome(w, in.sweep ? sweep_outcome(records, csv) : outcome);
  put_fingerprints(w, prints);
  w.key("task_s").value(setup_s + sp.total("harness.run"));
  w.key("setup_s").value(setup_s);
  w.key("setup_layers_s").value(per_setup * sp.children_total("bench.setup_replay"));
  w.key("step_s").value(sp.total("sim.step"));
  w.key("step_phases_s").value(sp.children_total("sim.step"));
  w.key("peak_rss_mb").value(peak_rss_mb());
  w.key("layers").begin_object();
  w.key("topology.build_s").value(per_setup * sp.total("topology.build"));
  w.key("topology.distance_build_s").value(per_setup * sp.total("topology.distance_build"));
  w.key("routing.build_s").value(per_setup * sp.total("routing.build"));
  w.key("routing.ns_per_hop").value(1e9 * sp.total("routing.walk") / static_cast<double>(lt.walk_hops));
  w.key("sim.network_build_s").value(sp.total("sim.network_build"));
  w.key("sim.events_s").value(sp.total("sim.events"));
  w.key("sim.generation_s").value(sp.total("sim.generation"));
  w.key("sim.alloc_s").value(sp.total("sim.alloc"));
  w.key("sim.link_s").value(sp.total("sim.link"));
  w.key("sim.cycles_per_s").value(static_cast<double>(lt.cycles) / sp.total("sim.step"));
  w.key("sim.packets").value(lt.packets);
  w.key("sim.cpu_per_wall").value(lt.step_cpu / sp.total("sim.step"));
  w.key("workload.build_s").value(per_setup * sp.total("workload.traffic_build") +
                                   sp.total("workload.build"));
  w.key("harness.worker_util").value(worker_util);
  w.key("metrics.result_write_s").value(sp.total("metrics.result_write"));
  w.end_object();
  w.key("self_s").begin_object();
  for (const auto& [layer, seconds] : sp.self_by_layer()) w.key(layer).value(seconds);
  w.end_object();
  w.end_object();
  print_json(w);
  return 0;
}

int cmd_info(const Options& opt) {
  opt.warn_unknown();
  JsonWriter w;
  w.begin_object();
  w.key("build_type").value(HXSP_BENCH_BUILD_TYPE);
  w.key("compiler").value(HXSP_BENCH_COMPILER);
  w.end_object();
  print_json(w);
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const std::string cmd = opt.positional().empty() ? "" : opt.positional().front();
  if (cmd == "emit") return cmd_emit(opt);
  if (cmd == "rep") return cmd_rep(opt);
  if (cmd == "probe") return cmd_probe(opt);
  if (cmd == "trace") return cmd_trace(opt);
  if (cmd == "info") return cmd_info(opt);
  std::fprintf(stderr, "usage: hxsp_bench emit|rep|probe|trace|info [--key=value ...]\n");
  return 2;
}
