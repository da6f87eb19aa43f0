/// \file workload_test.cpp
/// The message-level workload subsystem: generator shapes, the default
/// dependency wiring, validation, JSONL trace round trips, the engine's
/// dependency release order (phase gating), the `workload` task kind's
/// codec and its distributed bit-identity contract (1/2/8 workers,
/// sharded + resumed == uninterrupted), and the faulted all-reduce
/// regression comparing SurePath against the escape-only lower bound.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>

#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "routing/factory.hpp"
#include "topology/faults.hpp"
#include "workload/run.hpp"
#include "workload/trace.hpp"
#include "workload/workload.hpp"

namespace hxsp {
namespace {

MessageList build(const WorkloadParams& p, ServerId n,
                  std::uint64_t seed = 7) {
  Rng rng(seed);
  MessageList msgs = make_workload(p)->build(n, rng);
  validate_workload(msgs, n);
  return msgs;
}

/// A list of \p records, record i depending on \p deps[i] (none when
/// \p deps is shorter).
MessageList make_list(const std::vector<Message>& records,
                      const std::vector<std::vector<std::int32_t>>& deps = {}) {
  MessageList msgs;
  for (std::size_t i = 0; i < records.size(); ++i)
    msgs.push_back(records[i], i < deps.size() ? deps[i]
                                               : std::vector<std::int32_t>{});
  return msgs;
}

/// Messages of one phase, in message order.
std::vector<Message> phase_of(const MessageList& msgs, int phase) {
  std::vector<Message> out;
  for (const Message& m : msgs)
    if (m.phase == phase) out.push_back(m);
  return out;
}

// ---------------------------------------------------------------------------
// Generator shapes.
// ---------------------------------------------------------------------------

TEST(WorkloadGen, AllToAllIsStagedPermutations) {
  WorkloadParams p;
  p.name = "alltoall";
  p.msg_packets = 3;
  const ServerId n = 8;
  const auto msgs = build(p, n);
  EXPECT_EQ(workload_num_phases(msgs), n - 1);
  EXPECT_EQ(msgs.size(), static_cast<std::size_t>(n) * (n - 1));
  EXPECT_EQ(workload_total_packets(msgs), 3L * n * (n - 1));
  std::set<std::pair<ServerId, ServerId>> pairs;
  for (int ph = 0; ph < n - 1; ++ph) {
    const auto stage = phase_of(msgs, ph);
    ASSERT_EQ(stage.size(), static_cast<std::size_t>(n));
    std::set<ServerId> dsts;
    for (const Message& m : stage) {
      EXPECT_NE(m.src, m.dst);
      dsts.insert(m.dst);
      pairs.insert({m.src, m.dst});
    }
    EXPECT_EQ(dsts.size(), static_cast<std::size_t>(n)) << "phase " << ph
        << " is not a permutation";
  }
  // Every ordered pair is covered exactly once.
  EXPECT_EQ(pairs.size(), static_cast<std::size_t>(n) * (n - 1));
}

TEST(WorkloadGen, RingAllReduceChainsNeighbours) {
  WorkloadParams p;
  p.name = "ring_allreduce";
  const ServerId n = 6;
  const auto msgs = build(p, n);
  EXPECT_EQ(workload_num_phases(msgs), 2 * (n - 1));
  EXPECT_EQ(msgs.size(), static_cast<std::size_t>(2 * (n - 1)) * n);
  for (const Message& m : msgs) EXPECT_EQ(m.dst, (m.src + 1) % n);
  // Step k's send by server i depends exactly on step k-1's chunk
  // received by i (sent by i-1): the receive-before-send chain.
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const Message& m = msgs[i];
    if (m.phase == 0) {
      EXPECT_TRUE(msgs.deps(i).empty());
      continue;
    }
    ASSERT_EQ(msgs.deps(i).size(), 1u);
    const Message& dep = msgs[static_cast<std::size_t>(msgs.deps(i)[0])];
    EXPECT_EQ(dep.phase, m.phase - 1);
    EXPECT_EQ(dep.dst, m.src);
  }
}

TEST(WorkloadGen, RecursiveDoublingExchangesPartners) {
  WorkloadParams p;
  p.name = "rd_allreduce";
  const ServerId n = 8;
  const auto msgs = build(p, n);
  EXPECT_EQ(workload_num_phases(msgs), 3);  // log2(8)
  EXPECT_EQ(msgs.size(), 3u * n);
  for (const Message& m : msgs)
    EXPECT_EQ(m.dst, m.src ^ (1 << m.phase)) << "phase " << m.phase;
  EXPECT_DEATH(build(p, 6), "power-of-two");
}

TEST(WorkloadGen, HaloExchangesDistinctTorusNeighbours) {
  WorkloadParams p;
  p.name = "halo2d";
  p.rounds = 2;
  const auto msgs = build(p, 16);  // 4x4 grid
  EXPECT_EQ(workload_num_phases(msgs), 2);
  // 4 distinct neighbours per server per round on a 4x4 torus.
  EXPECT_EQ(msgs.size(), 2u * 16 * 4);
  // Round 1 messages depend on the halos received in round 0.
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    if (msgs[i].phase == 1) {
      EXPECT_EQ(msgs.deps(i).size(), 4u);
    }
  }

  WorkloadParams p3;
  p3.name = "halo3d";
  const auto msgs3 = build(p3, 8);  // 2x2x2: the +-1 neighbours coincide
  EXPECT_EQ(msgs3.size(), 8u * 3);
}

TEST(WorkloadGen, ShuffleIsSelfFreePartialPermutationPerPhase) {
  WorkloadParams p;
  p.name = "shuffle";
  p.rounds = 3;
  const ServerId n = 16;
  const auto msgs = build(p, n);
  EXPECT_EQ(workload_num_phases(msgs), 3);
  for (int ph = 0; ph < 3; ++ph) {
    std::set<ServerId> srcs, dsts;
    for (const Message& m : phase_of(msgs, ph)) {
      EXPECT_NE(m.src, m.dst);
      EXPECT_TRUE(srcs.insert(m.src).second);
      EXPECT_TRUE(dsts.insert(m.dst).second);
    }
  }
  // Same seed, same workload: generation is deterministic.
  EXPECT_EQ(build(p, n, 99), build(p, n, 99));
}

TEST(WorkloadGen, RandomGraphHonoursFanout) {
  WorkloadParams p;
  p.name = "random";
  p.rounds = 2;
  p.fanout = 3;
  const ServerId n = 10;
  const auto msgs = build(p, n);
  EXPECT_EQ(msgs.size(), 2u * 10 * 3);
  for (const Message& m : msgs) EXPECT_NE(m.src, m.dst);
}

// ---------------------------------------------------------------------------
// Dependency wiring and validation.
// ---------------------------------------------------------------------------

TEST(WorkloadDeps, WiresInboundThenOwnSendsThenNothing) {
  // phase 0: 0->1, 2->1, 3->2; phase 1: 1->0 (inbound deps),
  // 3->0 (no inbound: falls back to own phase-0 send), 4->0 (idle: none).
  MessageList msgs = make_list({
      {0, 1, 1, 0}, {2, 1, 1, 0}, {3, 2, 1, 0},
      {1, 0, 1, 1}, {3, 0, 1, 1}, {4, 0, 1, 1},
  });
  wire_phase_deps(msgs);
  auto deps = [&](std::size_t i) {
    return std::vector<std::int32_t>(msgs.deps(i).begin(), msgs.deps(i).end());
  };
  EXPECT_EQ(deps(3), (std::vector<std::int32_t>{0, 1}));
  EXPECT_EQ(deps(4), (std::vector<std::int32_t>{2}));
  EXPECT_TRUE(deps(5).empty());
  validate_workload(msgs, 5);
}

TEST(WorkloadDeps, ValidateRejectsBadInput) {
  EXPECT_DEATH(validate_workload(make_list({{0, 9, 1, 0}}), 4), "out of range");
  EXPECT_DEATH(validate_workload(make_list({{1, 1, 1, 0}}), 4), "to self");
  EXPECT_DEATH(validate_workload(make_list({{0, 1, 0, 0}}), 4),
               "without packets");
  // Phase numbers are bounded by the message count: an absurd phase in
  // a trace must abort cleanly, not OOM the per-phase bookkeeping.
  EXPECT_DEATH(validate_workload(make_list({{0, 1, 1, 2000000000}}), 4),
               "phase");
  // A two-message dependency cycle can never be scheduled.
  EXPECT_DEATH(validate_workload(
                   make_list({{0, 1, 1, 0}, {1, 0, 1, 0}}, {{1}, {0}}), 4),
               "cycle");
}

TEST(WorkloadDeps, WiresAPhasePerMessageTraceInLinearTime) {
  // 100k messages, each in its own phase, over 100k servers: a table per
  // (phase, server) would need 10^10 cells. Message i (i -> i+1, phase i)
  // depends on message i-1, the one server i received in phase i-1.
  constexpr ServerId kN = 100000;
  MessageList msgs;
  msgs.reserve(kN);
  for (ServerId i = 0; i < kN; ++i) msgs.push_back({i, (i + 1) % kN, 1, i});
  const auto t0 = std::chrono::steady_clock::now();
  wire_phase_deps(msgs);
  validate_workload(msgs, kN);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - t0;
  EXPECT_LT(took.count(), 1.0);
  ASSERT_EQ(msgs.num_deps(), static_cast<std::size_t>(kN - 1));
  EXPECT_TRUE(msgs.deps(0).empty());
  for (std::size_t i = 1; i < msgs.size(); ++i) {
    ASSERT_EQ(msgs.deps(i).size(), 1u);
    ASSERT_EQ(msgs.deps(i)[0], static_cast<std::int32_t>(i - 1));
  }
}

TEST(WorkloadDeps, BareRecordsMeanTheDefaultWiring) {
  // A std::vector<Message> converts to the phase-wired list and back.
  const std::vector<Message> records = {
      {0, 1, 1, 0}, {1, 2, 1, 1}, {2, 0, 1, 2}, {1, 0, 1, 2}};
  MessageList wired = make_list(records);
  wire_phase_deps(wired);
  const MessageList converted = records;
  EXPECT_EQ(converted, wired);
  EXPECT_TRUE(converted.phase_wired());
  EXPECT_EQ(std::vector<Message>(MessageList(records)), records);
  // Explicit dependencies have no bare-record form.
  EXPECT_FALSE(make_list(records).phase_wired());
  EXPECT_DEATH(std::vector<Message>(make_list(records, {{}, {0}})),
               "explicit dependencies");
}

// ---------------------------------------------------------------------------
// JSONL trace codec.
// ---------------------------------------------------------------------------

TEST(WorkloadTrace, RoundTripsLosslesslyAndByteStably) {
  const MessageList msgs =
      make_list({{0, 5, 4, 0}, {5, 0, 2, 1}, {3, 1, 1, 1}}, {{}, {0}, {0, 1}});
  const std::string text = trace_to_jsonl(msgs);
  const MessageList back = trace_from_jsonl(text);
  EXPECT_EQ(back, msgs);
  EXPECT_EQ(trace_to_jsonl(back), text);
}

TEST(WorkloadTrace, ToleratesBlankLinesAndNoDeps) {
  const std::string text =
      "{\"src\":0,\"dst\":1,\"packets\":2,\"phase\":0}\n"
      "\n"
      "  \n"
      "{\"src\":1,\"dst\":0,\"packets\":2,\"phase\":1}\n";
  const auto msgs = trace_from_jsonl(text);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_TRUE(msgs.deps(0).empty());
  EXPECT_EQ(msgs[1].phase, 1);
}

TEST(WorkloadTrace, RejectsNumbersThatDoNotFitTheirField) {
  // 2^32 + k used to narrow to k: a different, valid-looking trace.
  const std::string ok = "{\"src\":0,\"dst\":1,\"packets\":2,\"phase\":0}\n\n";
  EXPECT_DEATH(trace_from_jsonl(ok + "{\"src\":4294967297,\"dst\":0,"
                                     "\"packets\":2,\"phase\":1}\n"),
               "trace line 3: src = 4294967297 is not an integer in "
               "\\[-2147483648, 2147483647\\]");
  EXPECT_DEATH(trace_from_jsonl(ok + "{\"src\":1,\"dst\":-4294967296,"
                                     "\"packets\":2,\"phase\":1}\n"),
               "trace line 3: dst = -4294967296 is not an integer");
  EXPECT_DEATH(trace_from_jsonl(ok + "{\"src\":1,\"dst\":0,\"packets\":2,"
                                     "\"phase\":1,\"deps\":[0,4294967296]}\n"),
               "trace line 3: deps\\[1\\] = 4294967296 is not an integer");
  EXPECT_DEATH(trace_from_jsonl(ok + "{\"src\":1,\"dst\":0,\"packets\":2.5,"
                                     "\"phase\":1}\n"),
               "trace line 3: packets = 2\\.5 is not an integer");
  EXPECT_DEATH(trace_from_jsonl(ok + "{\"src\":1,\"dst\":0,\"packets\":2,"
                                     "\"phase\":1e0}\n"),
               "trace line 3: phase = 1e0 is not an integer");
  EXPECT_DEATH(trace_from_jsonl(ok + "{\"src\":\"1\",\"dst\":0,"
                                     "\"packets\":2,\"phase\":1}\n"),
               "trace line 3: src = \\(not a number\\)");
}

// ---------------------------------------------------------------------------
// Task model: codec and kind plumbing.
// ---------------------------------------------------------------------------

ExperimentSpec small_spec() {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 1;
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.seed = 11;
  return s;
}

TEST(WorkloadTask, CodecRoundTrips) {
  WorkloadParams p;
  p.name = "ring_allreduce";
  p.msg_packets = 7;
  p.rounds = 2;
  p.fanout = 5;
  p.trace = "some/trace.jsonl";
  ExperimentSpec spec = small_spec();
  spec.traffic_params.hotspot_fraction = 0.25;  // spec params ride along
  spec.traffic_params.hotspot_count = 3;
  TaskSpec t = TaskSpec::workload(spec, p, 1234, 987654);
  t.id = make_task_id("ext_workloads", 4);
  t.label = "ring_allreduce";
  t.extra = "fault_frac=0.04;faults=2";
  const TaskSpec back = TaskSpec::from_json_text(t.to_json());
  EXPECT_EQ(back, t);
  EXPECT_EQ(back.to_json(), t.to_json());
  EXPECT_EQ(back.kind, TaskKind::kWorkload);
  EXPECT_EQ(back.workload_params, p);
  EXPECT_EQ(back.spec.traffic_params.hotspot_count, 3);
  EXPECT_EQ(back.bucket_width, 1234);
  EXPECT_EQ(back.max_cycles, 987654);
}

TEST(WorkloadTask, KindNamesAndResultKind) {
  EXPECT_STREQ(task_kind_name(TaskKind::kWorkload), "workload");
  EXPECT_EQ(task_kind_from_name("workload"), TaskKind::kWorkload);
  EXPECT_EQ(task_result_kind(TaskResult(WorkloadResult{})),
            TaskKind::kWorkload);
  EXPECT_EQ(task_result_row(TaskResult(WorkloadResult{})), nullptr);
}

// ---------------------------------------------------------------------------
// Engine: dependency release order and phase gating.
// ---------------------------------------------------------------------------

TEST(WorkloadEngine, PhasesCompleteInDependencyOrder) {
  WorkloadParams p;
  p.name = "ring_allreduce";
  p.msg_packets = 2;
  Experiment e(small_spec());
  const WorkloadResult res = e.run_workload(p, 500, 1000000);
  ASSERT_TRUE(res.drained);
  const int phases = 2 * (16 - 1);
  ASSERT_EQ(static_cast<int>(res.phase_cycles.size()), phases);
  EXPECT_EQ(res.num_messages, 16L * phases);
  EXPECT_EQ(res.total_packets, 2L * 16 * phases);
  // Every phase-p message depends on a phase-(p-1) message, so phase
  // completion cycles are strictly increasing — the head-of-phase gate.
  for (int ph = 0; ph < phases; ++ph) {
    EXPECT_GT(res.phase_cycles[static_cast<std::size_t>(ph)], 0);
    if (ph > 0) {
      EXPECT_GT(res.phase_cycles[static_cast<std::size_t>(ph)],
                res.phase_cycles[static_cast<std::size_t>(ph - 1)]);
    }
  }
  EXPECT_GE(res.completion_time, res.phase_cycles.back());
  EXPECT_GT(res.p99_msg_latency, 0);
  EXPECT_GE(res.p99_msg_latency, res.p50_msg_latency);
  // Deterministic: the same spec re-runs bit-identically.
  const WorkloadResult again = e.run_workload(p, 500, 1000000);
  EXPECT_EQ(again.completion_time, res.completion_time);
  EXPECT_EQ(again.phase_cycles, res.phase_cycles);
  EXPECT_EQ(again.avg_msg_latency, res.avg_msg_latency);
}

TEST(WorkloadEngine, EmptyPhaseGapIsVacuouslyComplete) {
  // A trace numbering phases {0, 2} leaves phase 1 empty; a drained run
  // must not report it as "never finished" (-1).
  const std::string path = testing::TempDir() + "/hxsp_wl_gap_" +
                           std::to_string(::getpid()) + ".jsonl";
  MessageList msgs;
  for (ServerId i = 0; i < 16; ++i) msgs.push_back({i, (i + 1) % 16, 1, 0});
  for (ServerId i = 0; i < 16; ++i) msgs.push_back({i, (i + 1) % 16, 1, 2});
  ASSERT_TRUE(save_trace_file(path, msgs));
  WorkloadParams p;
  p.name = "trace";
  p.trace = path;
  Experiment e(small_spec());
  const WorkloadResult res = e.run_workload(p, 500, 1000000);
  std::remove(path.c_str());
  ASSERT_TRUE(res.drained);
  ASSERT_EQ(res.phase_cycles.size(), 3u);
  EXPECT_GT(res.phase_cycles[0], 0);
  EXPECT_EQ(res.phase_cycles[1], 0);  // vacuously complete at start
  EXPECT_GT(res.phase_cycles[2], 0);
}

TEST(WorkloadEngine, DeadlineReportsUndrained) {
  WorkloadParams p;
  p.name = "alltoall";
  Experiment e(small_spec());
  const WorkloadResult res = e.run_workload(p, 500, 50);  // far too short
  EXPECT_FALSE(res.drained);
  EXPECT_EQ(res.completion_time, 50);
}

// ---------------------------------------------------------------------------
// Distributed bit-identity: 1/2/8 workers, shards + resume.
// ---------------------------------------------------------------------------

TaskGrid workload_grid() {
  TaskGrid grid("wl_test");
  int i = 0;
  for (const char* name :
       {"alltoall", "ring_allreduce", "halo2d", "shuffle", "random"}) {
    WorkloadParams p;
    p.name = name;
    p.msg_packets = 2;
    ExperimentSpec s = small_spec();
    s.seed = static_cast<std::uint64_t>(20 + i++);
    TaskSpec t = TaskSpec::workload(s, p, 500, 1000000);
    t.label = name;
    grid.add(std::move(t));
  }
  return grid;
}

std::string csv_of(const TaskGrid& grid, int jobs) {
  ParallelSweep sweep(jobs);
  ResultSink sink(grid.driver());
  const auto results = sweep.run_tasks(grid.tasks());
  for (std::size_t i = 0; i < results.size(); ++i)
    sink.add(grid[i], results[i]);
  return sink.csv();
}

TEST(WorkloadSweep, BitIdenticalAcrossWorkerCounts) {
  const TaskGrid grid = workload_grid();
  const std::string ref = csv_of(grid, 1);
  EXPECT_EQ(csv_of(grid, 2), ref);
  EXPECT_EQ(csv_of(grid, 8), ref);
  // The records parse back and carry the workload mapping.
  const auto records = ResultSink::parse_csv(ref);
  ASSERT_EQ(records.size(), grid.size());
  for (const auto& rec : records) {
    EXPECT_EQ(rec.kind, "workload");
    EXPECT_TRUE(rec.drained);
    EXPECT_GT(rec.completion_time, 0);
    EXPECT_NE(rec.extra.find("phase_cycles="), std::string::npos);
    EXPECT_NE(rec.extra.find("messages="), std::string::npos);
  }
}

std::string temp_path(const std::string& name) {
  static const std::string pid = std::to_string(::getpid());
  return testing::TempDir() + "/hxsp_wl_" + pid + "_" + name;
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

TEST(WorkloadSweep, ShardedAndResumedRunsMatchUninterrupted) {
  const TaskGrid grid = workload_grid();

  const std::string ref_path = temp_path("ref.csv");
  std::remove(ref_path.c_str());
  RunnerOptions ropts;
  ropts.jobs = 1;
  ropts.csv_path = ref_path;
  ropts.quiet = true;
  run_manifest(grid.tasks(), ropts);
  const std::string ref = slurp(ref_path);

  // Shard 0/2 + 1/2, merged by task id == the uninterrupted run.
  std::vector<std::vector<ResultRecord>> parts;
  for (int shard = 0; shard < 2; ++shard) {
    const std::string path = temp_path("s" + std::to_string(shard) + ".csv");
    std::remove(path.c_str());
    RunnerOptions sopts;
    sopts.jobs = 2;
    sopts.shard = {shard, 2};
    sopts.csv_path = path;
    sopts.quiet = true;
    run_manifest(grid.tasks(), sopts);
    parts.push_back(ResultSink::parse_csv(slurp(path)));
    std::remove(path.c_str());
  }
  EXPECT_EQ(ResultSink::csv(ResultSink::merge(parts)), ref);

  // Kill mid-file (60% of the bytes) and resume: byte-identical again.
  const std::string resume_path = temp_path("resume.csv");
  std::FILE* f = std::fopen(resume_path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::size_t cut = ref.size() * 3 / 5;
  ASSERT_EQ(std::fwrite(ref.data(), 1, cut, f), cut);
  std::fclose(f);
  RunnerOptions vopts;
  vopts.jobs = 1;
  vopts.csv_path = resume_path;
  vopts.quiet = true;
  const RunnerReport resumed = run_manifest(grid.tasks(), vopts);
  EXPECT_GT(resumed.resumed, 0u);
  EXPECT_EQ(slurp(resume_path), ref);
  std::remove(resume_path.c_str());
  std::remove(ref_path.c_str());
}

// ---------------------------------------------------------------------------
// Faulted all-reduce regression: SurePath vs escape-only.
// ---------------------------------------------------------------------------

TEST(WorkloadRegression, FaultedAllReduceSurePathBeatsEscapeOnly) {
  ExperimentSpec s = small_spec();
  HyperX scratch(s.sides, s.resolved_servers_per_switch());
  Rng frng(41);
  s.fault_links = random_fault_links(scratch.graph(), 4, frng, true);

  WorkloadParams p;
  p.name = "ring_allreduce";
  p.msg_packets = 2;

  s.mechanism = "polsp";
  Experiment surepath(s);
  const WorkloadResult sp = surepath.run_workload(p, 500, 2000000);

  s.mechanism = "escape";
  Experiment escape_only(s);
  const WorkloadResult esc = escape_only.run_workload(p, 500, 2000000);

  // Both must finish under faults (deadlock freedom / fault tolerance)...
  ASSERT_TRUE(sp.drained);
  ASSERT_TRUE(esc.drained);
  // ...but the adaptive CRout plane is what buys the completion time:
  // funnelling the whole collective through the Up/Down tree is strictly
  // slower end to end and in the message-latency tail.
  EXPECT_LT(sp.completion_time, esc.completion_time);
  EXPECT_LE(sp.p99_msg_latency, esc.p99_msg_latency);
}

TEST(WorkloadRegression, EscapeOnlyMechanismIsWired) {
  EXPECT_EQ(make_mechanism("escape")->name(), "EscapeOnly");
  EXPECT_TRUE(make_mechanism("escape")->needs_escape());
  // Deliberately absent from the paper's mechanism grid.
  const auto names = mechanism_names();
  EXPECT_EQ(std::count(names.begin(), names.end(), "escape"), 0);
}

} // namespace
} // namespace hxsp
