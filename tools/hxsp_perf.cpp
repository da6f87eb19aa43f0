/// \file hxsp_perf.cpp
/// Engine performance baseline: steps a small fixed grid of fig06-style
/// configurations (8x8 HyperX, PolSP, 4 VCs, a prefix of random link
/// faults) at four offered loads bracketing the figure's operating curve
/// (0.10 mostly idle, 0.55 below the knee, 0.80 mid-congestion, 0.95
/// saturated) plus one completion-mode drain, and reports cycles/sec and
/// packets/sec per config.
///
/// Results are persisted to BENCH_engine.json, merged by --label: an
/// existing file keeps every entry with a different label, so the file
/// accumulates a perf trajectory across engine PRs ("seed" vs "pr4" vs
/// ...). The file is rewritten (atomic tmp+rename) after every completed
/// config, so a config that throws mid-grid still leaves the earlier
/// configs — including their --phase-times rows — on disk.
/// Each config reports the best of --reps repetitions by wall time
/// (monotonic clock), that rep's CPU time (the whole process, so step
/// pool workers count), and the process's peak resident set so far
/// (getrusage; it never falls, so a config's figure covers every config
/// run before it). Rate reps continue one steady-state Network (each rep
/// times the next `--cycles` window); drain reps re-run the identical
/// drain from scratch.
///
/// Usage: hxsp_perf [--quick] [--grid=fig06|big] [--label=NAME]
///                  [--out=FILE] [--reps=N] [--cycles=N] [--warmup=N]
///                  [--seed=N] [--only=CONFIG] [--step-threads=N]
///                  [--note=TEXT] [--phase-times]
///                  [--loads=a,b,c]  (override the rate-config loads)
///
///   --quick   CI-sized grid (4x4, short windows) — smoke scale, numbers
///             are not comparable with the default grid.
///
///   --grid=big  million-server scale smoke: a 64x64x64 HyperX with 4
///             servers per switch (262,144 switches, 1,048,576 servers),
///             where the dense all-pairs table would need 64 GiB and the
///             computed HyperX distance provider is mandatory. Two
///             configs: `big_dor` (DOR, 1 VC, provably deadlock-free,
///             healthy fabric — pure algebraic distances) and `big_min`
///             (minimal adaptive, 2 VCs, a prefix of link faults — drives
///             the provider's subcube-dirty check and cached-BFS
///             fallback). Lean buffers and low offered load keep the
///             footprint to packets actually in flight. With --quick the
///             topology shrinks to 32x32x32 with 32 servers per switch —
///             still 1,048,576 servers, 8x fewer switches.
///
///   --step-threads=N  attach an N-worker pool to the deterministic
///             parallel step (candidate precompute and link-phase
///             collect fan out; events, generation, alloc and the link
///             commit stay serial). Output is bit-identical at any N;
///             only wall time may change.
///
///   --phase-times  per-phase wall-time breakdown (events / generation /
///             alloc / link) printed per config and persisted as
///             phase_seconds in the entry — the measurement behind any
///             "phase X bounds the speedup" claim. Uses a monotonic clock
///             injected into the engine (phase shares must include worker
///             wall time, which a CPU-time meter would add up across
///             threads instead); profiling adds a few clock
///             reads per cycle, so headline rates from a profiled run are
///             modestly pessimistic.
///
///   --note=TEXT  free-text annotation stored in the written entry (e.g.
///             the host's core count, which bounds any parallel speedup).

#include <sys/resource.h>

#include <cstdio>
#include <ctime>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "topology/faults.hpp"
#include "util/fileio.hpp"
#include "util/jsonio.hpp"
#include "util/options.hpp"
#include "util/thread_pool.hpp"

using namespace hxsp;

namespace {

/// One measured point of the fixed grid.
struct PerfConfig {
  std::string name;
  ExperimentSpec spec;
  double load = 0.0;       ///< rate mode offered load (ignored for drain)
  long drain_packets = 0;  ///< >0: completion-mode drain config
};

struct PerfResult {
  std::string name;
  Cycle cycles = 0;           ///< simulated cycles in the timed region
  double wall_seconds = 0.0;  ///< best rep
  double cpu_seconds = 0.0;   ///< process CPU time of the best rep
  double peak_rss_mb = 0.0;   ///< process peak resident set after the config
  double cycles_per_sec = 0.0;
  double packets_per_sec = 0.0;  ///< consumed packets per wall second
  std::int64_t consumed = 0;     ///< packets consumed in the timed region
  bool has_phases = false;       ///< --phase-times was on
  /// Per-phase seconds accumulated over every timed rep (shares are the
  /// meaningful quantity; the absolute sum covers reps x cycles).
  double phase_events = 0.0, phase_generation = 0.0, phase_alloc = 0.0,
         phase_link = 0.0;
};

/// Monotonic wall clock, injected into the engine for --phase-times.
/// Phase profiling must be wall time, not thread CPU time: the parallel
/// phases burn CPU on pool workers, which the main thread's CPU clock
/// never sees.
double mono_now() {
#if defined(CLOCK_MONOTONIC)
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
#else
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
#endif
}

/// CPU time of the whole process: the main thread plus any step-pool
/// workers, so a parallel step shows what it costs in cores, not only in
/// wall time.
double cpu_now() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
#else
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
#endif
}

/// Peak resident set of the process so far, in MB (Linux reports KiB).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// fig06-style base spec: square 2-D HyperX, PolSP, uniform traffic,
/// 4 VCs, with the first \p faults links of the canonical fig06 fault
/// sequence already failed.
ExperimentSpec fig06_style_spec(int side, int faults, std::uint64_t seed) {
  ExperimentSpec s;
  s.sides = {side, side};
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.seed = seed;
  HyperX scratch(s.sides, s.resolved_servers_per_switch());
  Rng frng(s.seed + 1000);
  const auto seq = random_fault_sequence(scratch.graph(), frng);
  HXSP_CHECK(faults <= static_cast<int>(seq.size()));
  s.fault_links.assign(seq.begin(), seq.begin() + faults);
  return s;
}

/// Million-server scale-smoke spec. Lean buffers and a 4-phit packet keep
/// per-(port,VC) state small; the low offered load (set per config) keeps
/// the in-flight population far from saturation so a short window steps
/// quickly. The watchdog stays armed — a deadlock at this scale should
/// abort, not spin. \p faults fails the first links of the graph's id
/// order: all incident to low-id switches, so the fabric stays connected
/// (radix is 3*(side-1)) while every minimal subcube touching them goes
/// dirty — the computed provider's exact-fallback path gets real work.
ExperimentSpec big_spec(int side, int sps, const std::string& mechanism,
                        int vcs, int faults, std::uint64_t seed) {
  ExperimentSpec s;
  s.sides = {side, side, side};
  s.servers_per_switch = sps;
  s.mechanism = mechanism;
  s.pattern = "uniform";
  s.sim.packet_length = 4;
  s.sim.input_buffer_packets = 2;
  s.sim.output_buffer_packets = 1;
  s.sim.num_vcs = vcs;
  s.sim.server_queue_packets = 2;
  s.seed = seed;
  for (int l = 0; l < faults; ++l)
    s.fault_links.push_back(static_cast<LinkId>(l));
  return s;
}

void store_phases(PerfResult& r, const StepPhaseTimes& pt) {
  r.has_phases = true;
  r.phase_events = pt.events;
  r.phase_generation = pt.generation;
  r.phase_alloc = pt.alloc;
  r.phase_link = pt.link;
}

PerfResult measure_rate(const PerfConfig& pc, Cycle warmup, Cycle timed,
                        int reps, ThreadPool* pool, bool phase_times) {
  Experiment e(pc.spec);
  Network net(e.context(), e.mechanism(), e.traffic(), pc.spec.sim,
              pc.spec.resolved_servers_per_switch(), pc.spec.seed);
  net.set_step_pool(pool);
  net.set_offered_load(pc.load);
  net.run_cycles(warmup);

  // Attach after warmup so the profile covers only the timed windows.
  StepPhaseTimes phases(&mono_now);
  if (phase_times) net.attach_phase_times(&phases);

  PerfResult r;
  r.name = pc.name;
  r.cycles = timed;
  for (int rep = 0; rep < reps; ++rep) {
    const std::int64_t c0 = net.metrics().total_consumed_packets();
    const double t0 = mono_now();
    const double cpu0 = cpu_now();
    net.run_cycles(timed);
    const double cpu = cpu_now() - cpu0;
    const double dt = mono_now() - t0;
    const std::int64_t consumed = net.metrics().total_consumed_packets() - c0;
    if (rep == 0 || dt < r.wall_seconds) {
      r.wall_seconds = dt;
      r.cpu_seconds = cpu;
      r.consumed = consumed;
    }
  }
  r.peak_rss_mb = peak_rss_mb();
  r.cycles_per_sec = static_cast<double>(timed) / r.wall_seconds;
  r.packets_per_sec = static_cast<double>(r.consumed) / r.wall_seconds;
  if (phase_times) store_phases(r, phases);
  return r;
}

PerfResult measure_drain(const PerfConfig& pc, Cycle limit, int reps,
                         ThreadPool* pool, bool phase_times) {
  PerfResult r;
  r.name = pc.name;
  StepPhaseTimes phases(&mono_now);
  for (int rep = 0; rep < reps; ++rep) {
    Experiment e(pc.spec);
    Network net(e.context(), e.mechanism(), e.traffic(), pc.spec.sim,
                pc.spec.resolved_servers_per_switch(), pc.spec.seed);
    net.set_step_pool(pool);
    if (phase_times) net.attach_phase_times(&phases);
    net.set_completion_load(pc.drain_packets);
    const double t0 = mono_now();
    const double cpu0 = cpu_now();
    const bool drained = net.run_until_drained(limit);
    const double cpu = cpu_now() - cpu0;
    const double dt = mono_now() - t0;
    HXSP_CHECK_MSG(drained, "perf drain config did not complete");
    if (rep == 0 || dt < r.wall_seconds) {
      r.wall_seconds = dt;
      r.cpu_seconds = cpu;
      r.cycles = net.now();
      r.consumed = net.metrics().total_consumed_packets();
    }
  }
  r.peak_rss_mb = peak_rss_mb();
  r.cycles_per_sec = static_cast<double>(r.cycles) / r.wall_seconds;
  r.packets_per_sec = static_cast<double>(r.consumed) / r.wall_seconds;
  if (phase_times) store_phases(r, phases);
  return r;
}

void print_phases(const PerfResult& r) {
  const double total =
      r.phase_events + r.phase_generation + r.phase_alloc + r.phase_link;
  if (total <= 0.0) return;
  std::printf("  phases: events %5.1f%%  generation %5.1f%%  alloc %5.1f%%  "
              "link %5.1f%%  (%.3fs profiled)\n",
              100.0 * r.phase_events / total,
              100.0 * r.phase_generation / total,
              100.0 * r.phase_alloc / total, 100.0 * r.phase_link / total,
              total);
}

/// Re-emits a parsed JSON value verbatim (numbers keep their raw tokens).
void emit_value(JsonWriter& w, const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      HXSP_CHECK_MSG(false, "null not expected in BENCH_engine.json");
      break;
    case JsonValue::Kind::kBool:
      w.value(v.as_bool());
      break;
    case JsonValue::Kind::kNumber:
      w.raw_number(v.number_token());
      break;
    case JsonValue::Kind::kString:
      w.value(v.as_string());
      break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const JsonValue& el : v.array()) emit_value(w, el);
      w.end_array();
      break;
    case JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& kv : v.object()) {
        w.key(kv.first);
        emit_value(w, kv.second);
      }
      w.end_object();
      break;
  }
}

/// Entries of an existing bench file whose label differs from ours.
/// Called before any measurement runs, so a malformed file aborts up
/// front instead of after the whole grid was stepped.
std::vector<JsonValue> load_other_entries(const std::string& path,
                                          const std::string& label) {
  std::vector<JsonValue> kept;
  std::string text;
  if (try_read_file(path, &text) && !text.empty()) {
    const JsonValue old = JsonValue::parse(text);
    for (const JsonValue& entry : old.at("entries").array())
      if (entry.at("label").as_string() != label) kept.push_back(entry);
  }
  return kept;
}

void write_bench_json(const std::string& path, const std::string& label,
                      const std::string& grid_name, const std::string& note,
                      const std::vector<JsonValue>& kept,
                      const std::vector<PerfResult>& results) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("hxsp-engine-bench-v1");
  w.key("entries").begin_array();
  for (const JsonValue& entry : kept) emit_value(w, entry);
  w.begin_object();
  w.key("label").value(label);
  w.key("grid").value(grid_name);
  if (!note.empty()) w.key("note").value(note);
  w.key("configs").begin_array();
  for (const PerfResult& r : results) {
    w.begin_object();
    w.key("name").value(r.name);
    w.key("cycles").value(static_cast<std::int64_t>(r.cycles));
    w.key("consumed_packets").value(r.consumed);
    w.key("wall_seconds").value(r.wall_seconds);
    w.key("cpu_seconds").value(r.cpu_seconds);
    w.key("peak_rss_mb").value(r.peak_rss_mb);
    w.key("cycles_per_sec").value(r.cycles_per_sec);
    w.key("packets_per_sec").value(r.packets_per_sec);
    if (r.has_phases) {
      w.key("phase_seconds").begin_object();
      w.key("events").value(r.phase_events);
      w.key("generation").value(r.phase_generation);
      w.key("alloc").value(r.phase_alloc);
      w.key("link").value(r.phase_link);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_array();
  w.end_object();
  // Atomic replace: a killed run must never leave a torn file behind
  // (the next run would fail to parse it).
  const std::string tmp = path + ".tmp";
  HXSP_CHECK_MSG(write_whole_file(tmp, w.str() + "\n"),
                 "cannot write bench json");
  HXSP_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                 "cannot move bench json into place");
}

} // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const bool quick = opt.get_bool("quick", false);
  const std::string label = opt.get(
      "label", quick ? std::string("quick") : std::string("current"));
  const std::string out = opt.get("out", "BENCH_engine.json");
  const int reps = static_cast<int>(opt.get_int("reps", 3));
  const std::uint64_t seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));

  const std::string only = opt.get("only", "");
  const std::string grid_kind = opt.get("grid", "fig06");
  const std::string note = opt.get("note", "");
  const int step_threads = static_cast<int>(opt.get_int("step-threads", 0));
  const bool phase_times = opt.get_bool("phase-times", false);
  HXSP_CHECK_MSG(grid_kind == "fig06" || grid_kind == "big",
                 "--grid must be 'fig06' or 'big'");
  const bool big = grid_kind == "big";
  const Cycle warmup =
      opt.get_int("warmup", big ? (quick ? 10 : 30) : (quick ? 300 : 1000));
  const Cycle timed =
      opt.get_int("cycles", big ? (quick ? 40 : 100) : (quick ? 1000 : 4000));
  opt.warn_unknown();

  // Validate/load any existing output before spending time measuring.
  std::vector<JsonValue> kept;
  if (out != "none") kept = load_other_entries(out, label);

  std::vector<PerfConfig> grid;
  std::string grid_name;
  if (big) {
    const int side = quick ? 32 : 64;
    const int sps = quick ? 32 : 4;
    // Both configs carry 1,048,576 servers. DOR on one VC is provably
    // deadlock-free, so big_dor is the clean "does the engine step a
    // million servers" smoke; big_min adds minimal-adaptive routing over
    // a faulted fabric, forcing the computed distance provider through
    // its subcube-dirty check and BFS-row fallback on every route near
    // the faults.
    PerfConfig dor;
    dor.name = "big_dor";
    dor.spec = big_spec(side, sps, "dor", /*vcs=*/1, /*faults=*/0, seed);
    dor.load = 0.05;
    grid.push_back(std::move(dor));
    PerfConfig min;
    min.name = "big_min";
    min.spec = big_spec(side, sps, "minimal", /*vcs=*/2, /*faults=*/16, seed);
    min.load = 0.03;
    grid.push_back(std::move(min));
    grid_name = quick ? "big-quick-32x32x32" : "big-64x64x64";
  } else {
    const int side = quick ? 4 : 8;
    const int faults = quick ? 4 : 8;
    const long drain_packets = quick ? 16 : 48;
    const ExperimentSpec base = fig06_style_spec(side, faults, seed);
    // The fixed rate points bracket the fig06 operating curve (the figure
    // itself measures saturated throughput at offered 1.0): mostly-idle,
    // uncongested flow below the knee, the middle of the congestion
    // transition, and full saturation.
    const std::vector<double> loads =
        opt.get_double_list("loads", {0.10, 0.55, 0.80, 0.95});
    const char* load_names[] = {"fig06_low", "fig06_half", "fig06_mid",
                                "fig06_sat"};
    for (std::size_t i = 0; i < loads.size(); ++i) {
      PerfConfig pc;
      pc.name = i < 4 ? load_names[i] : "fig06_load" + std::to_string(i);
      pc.spec = base;
      pc.load = loads[i];
      grid.push_back(std::move(pc));
    }
    PerfConfig pc;
    pc.name = "fig06_drain";
    pc.spec = base;
    pc.drain_packets = drain_packets;
    grid.push_back(std::move(pc));
    grid_name = quick ? "quick-4x4" : "fig06-8x8";
  }
  std::printf("hxsp_perf — engine stepping rate, grid %s, label '%s'\n",
              grid_name.c_str(), label.c_str());
  std::printf("%-12s %10s %10s %10s %12s %14s %14s\n", "config", "cycles",
              "wall_s", "cpu_s", "peak_rss_mb", "cycles/sec", "packets/sec");

  const std::unique_ptr<ThreadPool> pool =
      step_threads > 0 ? std::make_unique<ThreadPool>(step_threads) : nullptr;
  std::vector<PerfResult> results;
  for (const PerfConfig& pc : grid) {
    if (!only.empty() && pc.name != only) continue;
    PerfResult r;
    try {
      r = pc.drain_packets > 0
              ? measure_drain(pc, /*limit=*/2000000, reps, pool.get(),
                              phase_times)
              : measure_rate(pc, warmup, timed, reps, pool.get(), phase_times);
    } catch (const std::exception& ex) {
      // The completed configs (phase rows included) are already on disk
      // from the incremental write below — a mid-grid failure must not
      // discard the measurements that did finish.
      std::fflush(stdout);
      std::fprintf(stderr, "hxsp_perf: config %s failed: %s\n",
                   pc.name.c_str(), ex.what());
      return 1;
    }
    std::printf("%-12s %10lld %10.4f %10.4f %12.1f %14.0f %14.0f\n",
                r.name.c_str(), static_cast<long long>(r.cycles),
                r.wall_seconds, r.cpu_seconds, r.peak_rss_mb, r.cycles_per_sec,
                r.packets_per_sec);
    if (r.has_phases) print_phases(r);
    std::fflush(stdout);
    results.push_back(r);
    // Persist after every config, not once at the end: the write is an
    // atomic tmp+rename merge, so re-writing per config is safe and a
    // throw (or kill) mid-grid still leaves every completed config —
    // and its phase breakdown — in the file.
    if (out != "none")
      write_bench_json(out, label, grid_name, note, kept, results);
  }

  if (out != "none") {
    if (results.empty()) write_bench_json(out, label, grid_name, note, kept,
                                          results);
    std::printf("wrote %s (label '%s')\n", out.c_str(), label.c_str());
  }
  return 0;
}
