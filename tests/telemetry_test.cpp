/// \file telemetry_test.cpp
/// The telemetry layer's contract (PR 10): enabling the registry, the
/// packet tracer and the flight recorder changes *nothing* about a run's
/// results (bit-identity on ResultRecord groups, telemetry on vs off, at
/// every step-thread count), the captured telemetry itself is
/// bit-identical across step-thread counts (the sampling golden test),
/// sampling keys purely on packet ids, and the exporters produce
/// well-formed artefacts (Chrome trace JSON that parses, JSONL with one
/// object per hop, telemetry ResultRecords in the shared schema).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "telemetry/capture.hpp"
#include "topology/faults.hpp"
#include "util/jsonio.hpp"

namespace hxsp {
namespace {

/// fig06-style base: 4x4 HyperX, PolSP, uniform, 4 VCs, a prefix of the
/// canonical random fault sequence, auditor on — faults guarantee escape
/// traffic so the SurePath instruments see real activations.
ExperimentSpec base_spec() {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 2;
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.sim.audit_interval = 64;
  s.warmup = 300;
  s.measure = 600;
  s.seed = 7;
  HyperX scratch(s.sides, s.servers_per_switch);
  Rng frng(s.seed + 1000);
  const auto seq = random_fault_sequence(scratch.graph(), frng);
  s.fault_links.assign(seq.begin(), seq.begin() + 4);
  return s;
}

/// Turns every telemetry knob on, at values that exercise multiple
/// windows and a non-trivial sample within the test's short runs.
void enable_telemetry(ExperimentSpec& s) {
  s.sim.telemetry_window = 64;
  s.sim.trace_sample = 4;
  s.sim.flight_recorder = 64;
}

TaskSpec rate_task(bool telemetry) {
  ExperimentSpec s = base_spec();
  if (telemetry) enable_telemetry(s);
  TaskSpec t = TaskSpec::rate(s, 0.6);
  t.id = "telemetry_test/000000";
  return t;
}

TaskSpec workload_task(bool telemetry) {
  ExperimentSpec s = base_spec();
  if (telemetry) enable_telemetry(s);
  WorkloadParams p;
  p.name = "alltoall";
  p.msg_packets = 2;
  TaskSpec t = TaskSpec::workload(s, p, /*bucket_width=*/500,
                                  /*max_cycles=*/2000000);
  t.id = "telemetry_test/000001";
  return t;
}

TaskSpec multitenant_task(bool telemetry) {
  ExperimentSpec s = base_spec();
  if (telemetry) enable_telemetry(s);
  MultitenantParams p;
  p.placement = "striped";
  p.isolated_baseline = true; // baseline nets must not disturb the capture
  JobSpec a;
  a.workload.name = "alltoall";
  a.workload.msg_packets = 2;
  a.demand = 8;
  a.arrival = 0;
  JobSpec b;
  b.workload.name = "ring_allreduce";
  b.workload.msg_packets = 2;
  b.demand = 4;
  b.arrival = 100;
  p.jobs = {a, b};
  TaskSpec t = TaskSpec::multitenant(s, p, /*bucket_width=*/500,
                                     /*max_cycles=*/2000000);
  t.id = "telemetry_test/000002";
  return t;
}

std::vector<TaskSpec> all_kinds(bool telemetry) {
  return {rate_task(telemetry), workload_task(telemetry),
          multitenant_task(telemetry)};
}

// ---------------------------------------------------------------------------
// Bit-identity: telemetry on vs off, across step-thread counts.
// ---------------------------------------------------------------------------

TEST(Telemetry, OnOffBitIdentityAcrossStepThreads) {
  // The acceptance bar of the PR: for every task kind and every
  // step-thread count, the result record group with telemetry fully on
  // equals the group with it off, field for field. The auditor is on in
  // both, so this also proves the instruments never perturb the state
  // the audit cross-checks.
  const std::vector<TaskSpec> off = all_kinds(false);
  const std::vector<TaskSpec> on = all_kinds(true);
  for (int threads : {0, 2, 8}) {
    for (std::size_t k = 0; k < off.size(); ++k) {
      const TaskResult r_off = run_task(off[k], threads);
      TelemetryCapture cap;
      const TaskResult r_on = run_task(on[k], threads, &cap);
      // Compare through the persisted record schema (covers every scalar
      // and series of every kind) — but under the *same* task identity,
      // since the specs deliberately differ in the telemetry knobs.
      const auto recs_off = make_records(off[k], r_off);
      const auto recs_on = make_records(off[k], r_on);
      ASSERT_EQ(recs_off.size(), recs_on.size())
          << off[k].id << " threads=" << threads;
      for (std::size_t i = 0; i < recs_off.size(); ++i)
        EXPECT_TRUE(recs_off[i] == recs_on[i])
            << off[k].id << " threads=" << threads << " record " << i;
      EXPECT_TRUE(cap.active()) << off[k].id;
    }
  }
}

TEST(Telemetry, CaptureGoldenAcrossStepThreads) {
  // The capture itself — every frame, link series, router counter, VC
  // counter and sampled hop — must be bit-identical at 1, 2 and 8 step
  // threads. This is the sampling golden test: traces are part of the
  // determinism contract, not a best-effort debug aid.
  for (const TaskSpec& task : all_kinds(true)) {
    TelemetryCapture serial;
    run_task(task, 0, &serial);
    EXPECT_TRUE(serial.active()) << task.id;
    EXPECT_FALSE(serial.frames.empty()) << task.id;
    EXPECT_FALSE(serial.hops.empty()) << task.id;
    for (int threads : {1, 2, 8}) {
      TelemetryCapture threaded;
      run_task(task, threads, &threaded);
      EXPECT_TRUE(serial == threaded) << task.id << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Capture content sanity.
// ---------------------------------------------------------------------------

TEST(Telemetry, FramesAccountForRouterTotals) {
  TelemetryCapture cap;
  run_task(rate_task(true), 0, &cap);
  ASSERT_FALSE(cap.frames.empty());
  EXPECT_EQ(cap.window, 64);
  EXPECT_EQ(cap.trace_sample, 4);
  ASSERT_EQ(cap.router_injections.size(), 16u);
  ASSERT_EQ(cap.vc_grants.size(), 4u);

  // Windowed aggregates and cumulative per-router counters are two views
  // of the same events: their totals must agree exactly.
  std::int64_t injected = 0, consumed = 0, escapes = 0, stalls = 0;
  for (std::size_t i = 0; i < cap.frames.size(); ++i) {
    const TelemetryFrame& f = cap.frames[i];
    // Full windows except possibly the last, which flush() closes at the
    // run's final cycle.
    if (i + 1 < cap.frames.size())
      EXPECT_EQ(f.end, f.start + 64);
    else
      EXPECT_LE(f.end, f.start + 64);
    EXPECT_GT(f.end, f.start);
    EXPECT_GE(f.link_phits, f.link_max_phits);
    injected += f.injected;
    consumed += f.consumed;
    escapes += f.escape_entries;
    stalls += f.credit_stalls;
  }
  std::int64_t r_inj = 0, r_ej = 0, r_esc = 0, r_stall = 0;
  for (std::size_t sw = 0; sw < cap.router_injections.size(); ++sw) {
    r_inj += cap.router_injections[sw];
    r_ej += cap.router_ejections[sw];
    r_esc += cap.router_escape_entries[sw];
    r_stall += cap.router_credit_stalls[sw];
  }
  EXPECT_EQ(injected, r_inj);
  EXPECT_EQ(consumed, r_ej);
  EXPECT_EQ(escapes, r_esc);
  EXPECT_EQ(stalls, r_stall);
  EXPECT_GT(injected, 0);
  EXPECT_GT(consumed, 0);
  // A faulted PolSP fabric at load 0.6 must have activated SurePath.
  EXPECT_GT(escapes, 0);

  // Per-link series exist at this scale (far below the cap) and column-
  // sum to the frames' aggregate link counter.
  ASSERT_FALSE(cap.links.empty());
  std::int64_t link_total = 0, frame_total = 0;
  for (const LinkWindowSeries& l : cap.links) {
    ASSERT_EQ(l.phits.size(), cap.frames.size());
    std::int64_t s = 0;
    for (std::int64_t v : l.phits) s += v;
    EXPECT_EQ(s, l.total);
    link_total += l.total;
  }
  for (const TelemetryFrame& f : cap.frames) frame_total += f.link_phits;
  EXPECT_EQ(link_total, frame_total);
}

TEST(Telemetry, SamplingKeysOnPacketIds) {
  TelemetryCapture cap;
  run_task(rate_task(true), 0, &cap);
  ASSERT_FALSE(cap.hops.empty());
  EXPECT_EQ(cap.trace_dropped, 0);
  for (const TraceHop& h : cap.hops) {
    EXPECT_EQ(h.packet % 4, 0) << "unsampled packet id in trace";
    EXPECT_GT(h.packet, 0);
  }
  // Every sampled packet that was consumed has a complete life cycle:
  // exactly one inject and one eject, with the eject last.
  std::int64_t injects = 0, ejects = 0;
  for (const TraceHop& h : cap.hops) {
    if (h.event == TraceEvent::kInject) ++injects;
    if (h.event == TraceEvent::kEject) ++ejects;
  }
  EXPECT_GT(injects, 0);
  EXPECT_GT(ejects, 0);
  EXPECT_GE(injects, ejects); // in-flight packets have no eject yet
}

// ---------------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------------

/// A task id as a hand-written manifest may carry one: the exporters
/// must escape it to stay valid JSON.
const char* const kHostileId = "fig\"06\\x/000000";

TEST(Telemetry, ChromeTraceJsonIsWellFormed) {
  TelemetryCapture cap;
  TaskSpec task = rate_task(true);
  run_task(task, 0, &cap);
  for (const std::string& id : {task.id, std::string(kHostileId)}) {
    SCOPED_TRACE(id);
    const std::vector<TaskTrace> traces = {{id, &cap.hops}};
    const JsonValue doc = JsonValue::parse(trace_chrome_json(traces));
    const auto& events = doc.at("traceEvents").array();
    // One metadata record naming the task's process plus one "X" slice
    // per hop.
    ASSERT_EQ(events.size(), cap.hops.size() + 1);
    EXPECT_EQ(events[0].at("ph").as_string(), "M");
    EXPECT_EQ(events[0].at("name").as_string(), "process_name");
    EXPECT_EQ(events[0].at("args").at("name").as_string(), id);
    for (std::size_t i = 1; i < events.size(); ++i) {
      const JsonValue& e = events[i];
      EXPECT_EQ(e.at("ph").as_string(), "X");
      EXPECT_EQ(e.at("ts").as_i64(), static_cast<std::int64_t>(
                                         cap.hops[i - 1].cycle));
      EXPECT_EQ(e.at("tid").as_i64(), cap.hops[i - 1].packet);
    }
  }
}

TEST(Telemetry, JsonlHasOneObjectPerHop) {
  TelemetryCapture cap;
  TaskSpec task = rate_task(true);
  run_task(task, 0, &cap);
  for (const std::string& id : {task.id, std::string(kHostileId)}) {
    SCOPED_TRACE(id);
    const std::vector<TaskTrace> traces = {{id, &cap.hops}};
    const std::string jsonl = trace_jsonl(traces);
    std::size_t lines = 0;
    for (char c : jsonl)
      if (c == '\n') ++lines;
    EXPECT_EQ(lines, cap.hops.size());
    // Each line parses as a standalone JSON object.
    std::size_t start = 0;
    for (std::size_t i = 0; i < jsonl.size(); ++i) {
      if (jsonl[i] != '\n') continue;
      const JsonValue v = JsonValue::parse(jsonl.substr(start, i - start));
      EXPECT_EQ(v.at("task").as_string(), id);
      start = i + 1;
    }
  }
}

TEST(Telemetry, MakeTelemetryRecordsShape) {
  TelemetryCapture cap;
  TaskSpec task = rate_task(true);
  run_task(task, 0, &cap);
  const auto rows = make_telemetry_records(task, cap);
  ASSERT_FALSE(rows.empty());
  bool saw_throughput = false, saw_link = false, saw_router = false,
       saw_trace = false;
  for (const ResultRecord& rec : rows) {
    EXPECT_EQ(rec.kind, "telemetry");
    EXPECT_EQ(rec.task_id, task.id);
    if (rec.label == "consumed_phits") {
      saw_throughput = true;
      EXPECT_EQ(rec.series.size(), cap.frames.size());
      EXPECT_EQ(rec.series_width, cap.window);
    }
    if (rec.label == "link") saw_link = true;
    if (rec.label == "router_injections") {
      saw_router = true;
      EXPECT_EQ(rec.series.size(), cap.router_injections.size());
    }
    if (rec.label == "trace") saw_trace = true;
  }
  EXPECT_TRUE(saw_throughput);
  EXPECT_TRUE(saw_link);
  EXPECT_TRUE(saw_router);
  EXPECT_TRUE(saw_trace);

  // A capture with everything off maps to no rows at all.
  EXPECT_TRUE(make_telemetry_records(task, TelemetryCapture{}).empty());

  // Telemetry records survive the CSV codec like any other record.
  const auto parsed = ResultSink::parse_csv(ResultSink::csv(rows));
  ASSERT_EQ(parsed.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_TRUE(parsed[i] == rows[i]) << "row " << i;
}

// ---------------------------------------------------------------------------
// Runner integration: separate artefacts, identical result CSV.
// ---------------------------------------------------------------------------

std::string temp_path(const std::string& name) {
  static const std::string pid = std::to_string(::getpid());
  return testing::TempDir() + "/hxsp_telem_" + pid + "_" + name;
}

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string content;
  if (f) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
    std::fclose(f);
  }
  return content;
}

TEST(Telemetry, RunnerKeepsResultCsvByteIdentical) {
  // The end-to-end guarantee behind the CI block: the runner's result
  // CSV with telemetry-enabled specs and artefact outputs is byte-
  // identical to the telemetry-off run, because telemetry rows go to
  // their own file.
  TaskGrid off_grid("telemetry_test");
  off_grid.add(rate_task(false));
  TaskGrid on_grid("telemetry_test");
  on_grid.add(rate_task(true));

  RunnerOptions off_opts;
  off_opts.csv_path = temp_path("off.csv");
  off_opts.quiet = true;
  run_manifest(off_grid.tasks(), off_opts);

  RunnerOptions on_opts;
  on_opts.csv_path = temp_path("on.csv");
  on_opts.telemetry_csv_path = temp_path("telemetry.csv");
  on_opts.trace_json_path = temp_path("trace.json");
  on_opts.trace_jsonl_path = temp_path("trace.jsonl");
  on_opts.quiet = true;
  const RunnerReport report = run_manifest(on_grid.tasks(), on_opts);

  EXPECT_EQ(slurp(off_opts.csv_path), slurp(on_opts.csv_path));
  EXPECT_FALSE(report.telemetry_records.empty());
  const std::string telemetry_csv = slurp(on_opts.telemetry_csv_path);
  EXPECT_EQ(ResultSink::parse_csv(telemetry_csv).size(),
            report.telemetry_records.size());
  // The trace JSON parses; the JSONL is non-empty.
  EXPECT_EQ(JsonValue::parse(slurp(on_opts.trace_json_path))
                .at("traceEvents")
                .array()
                .empty(),
            false);
  EXPECT_FALSE(slurp(on_opts.trace_jsonl_path).empty());
}

} // namespace
} // namespace hxsp
