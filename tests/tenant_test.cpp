/// \file tenant_test.cpp
/// The multi-tenant fabric subsystem: the PlacementMap ownership ledger
/// (disjointness enforced by death), the three placement policies'
/// shapes and determinism, the scheduler's FIFO-with-skip admission and
/// SLO accounting, the golden equivalence of a single full-fabric
/// tenant with the legacy `workload` kind, the interference regression,
/// the `multitenant` task codec, and the distributed bit-identity
/// contract (1/2/8 workers, shards, resume — including a kill inside a
/// row group, which must purge the orphaned tenant rows).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <set>

#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "tenant/placement.hpp"
#include "tenant/scheduler.hpp"

namespace hxsp {
namespace {

// ---------------------------------------------------------------------------
// PlacementMap: the ownership ledger.
// ---------------------------------------------------------------------------

TEST(PlacementMap, TracksOwnershipAndFreeCount) {
  PlacementMap map(8, 2);
  EXPECT_EQ(map.num_servers(), 8);
  EXPECT_EQ(map.num_switches(), 4);
  EXPECT_EQ(map.free_count(), 8);
  map.assign(3, {0, 1, 5});
  EXPECT_EQ(map.free_count(), 5);
  EXPECT_FALSE(map.is_free(0));
  EXPECT_TRUE(map.is_free(2));
  EXPECT_EQ(map.owner(5), 3);
  EXPECT_EQ(map.owner(2), kInvalid);
  map.release(3, {0, 1, 5});
  EXPECT_EQ(map.free_count(), 8);
  EXPECT_TRUE(map.is_free(5));
}

TEST(PlacementMap, DisjointnessViolationsDie) {
  PlacementMap map(8, 2);
  map.assign(0, {2, 3});
  EXPECT_DEATH(map.assign(1, {3}), "placement not disjoint");
  EXPECT_DEATH(map.assign(1, {4, 4}), "placement not disjoint");
  EXPECT_DEATH(map.assign(1, {8}), "placement out of range");
  EXPECT_DEATH(map.release(1, {2}), "does not own");
  EXPECT_DEATH(map.release(0, {4}), "does not own");  // free, not job 0's
}

// ---------------------------------------------------------------------------
// Placement policies: shapes and determinism.
// ---------------------------------------------------------------------------

TEST(PlacementPolicy, ContiguousPicksAlignedWholeSwitchBlocks) {
  PlacementMap map(16, 2);  // 8 switches of 2 servers
  Rng rng(1);
  const auto policy = make_placement("contiguous");
  // demand 4 = 2 whole switches, aligned at switch 0.
  const auto a = policy->place(map, 4, rng);
  EXPECT_EQ(a, (std::vector<ServerId>{0, 1, 2, 3}));
  map.assign(0, a);
  // The next aligned 2-switch block starts at switch 2.
  const auto b = policy->place(map, 4, rng);
  EXPECT_EQ(b, (std::vector<ServerId>{4, 5, 6, 7}));
  map.assign(1, b);
  // Odd demand claims a whole-switch block but only `demand` servers.
  const auto c = policy->place(map, 3, rng);
  EXPECT_EQ(c, (std::vector<ServerId>{8, 9, 10}));
}

TEST(PlacementPolicy, ContiguousFailsOnFragmentationStripedDoesNot) {
  PlacementMap map(8, 1);
  map.assign(0, {1, 3, 5, 7});  // every other switch taken
  Rng rng(1);
  // 4 servers free, but no two adjacent — contiguous cannot fit 2.
  EXPECT_TRUE(make_placement("contiguous")->place(map, 2, rng).empty());
  // Striping fits anything the free count allows.
  EXPECT_EQ(make_placement("striped")->place(map, 3, rng),
            (std::vector<ServerId>{0, 2, 4}));
}

TEST(PlacementPolicy, StripedRoundRobinsAcrossSwitches) {
  PlacementMap map(8, 2);  // 4 switches
  Rng rng(1);
  // One server per switch per sweep, wrapping for the fifth.
  EXPECT_EQ(make_placement("striped")->place(map, 5, rng),
            (std::vector<ServerId>{0, 2, 4, 6, 1}));
}

TEST(PlacementPolicy, RandomIsDeterministicAndDrawsOnlyOnSuccess) {
  PlacementMap map(8, 1);
  const auto policy = make_placement("random");
  Rng a(42), b(42);
  const auto pa = policy->place(map, 5, a);
  const auto pb = policy->place(map, 5, b);
  EXPECT_EQ(pa, pb);  // same stream, same scatter
  ASSERT_EQ(pa.size(), 5u);
  std::set<ServerId> distinct(pa.begin(), pa.end());
  EXPECT_EQ(distinct.size(), 5u);
  for (ServerId v : pa) EXPECT_TRUE(v >= 0 && v < 8);
  // A failed fit must not consume randomness: the next draw from a
  // stream that saw a failure equals the draw from an untouched fork.
  map.assign(0, {0, 1, 2, 3, 4, 5});
  Rng c(7), d(7);
  EXPECT_TRUE(policy->place(map, 3, c).empty());  // only 2 free
  EXPECT_EQ(c.next_u64(), d.next_u64());
}

TEST(PlacementPolicy, FactoryNamesAreCanonical) {
  EXPECT_EQ(placement_names(),
            (std::vector<std::string>{"contiguous", "striped", "random"}));
  for (const std::string& name : placement_names())
    EXPECT_EQ(make_placement(name)->name(), name);
  EXPECT_DEATH(make_placement("best_fit"), "unknown placement policy");
}

// ---------------------------------------------------------------------------
// Scheduler semantics through Experiment::run_multitenant.
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

JobSpec job(const char* workload, ServerId demand, Cycle arrival,
            Cycle deadline = 0) {
  JobSpec j;
  j.workload.name = workload;
  j.workload.msg_packets = 2;
  j.demand = demand;
  j.arrival = arrival;
  j.deadline = deadline;
  return j;
}

TEST(TenantScheduler, FifoWithSkipAdmission) {
  // 16 servers. Job 0 takes 12 at cycle 0; job 1 (8 servers) cannot fit
  // and waits; job 2 (4 servers) arrives behind it but fits the residue
  // immediately — the skip. Job 1 is admitted only once servers free up.
  MultitenantParams p;
  p.isolated_baseline = false;
  p.jobs = {job("alltoall", 12, 0), job("ring_allreduce", 8, 0, 2000000),
            job("alltoall", 4, 0, 1)};
  Experiment e(small_spec());
  const MultitenantResult res = e.run_multitenant(p, 500, 2000000);
  ASSERT_TRUE(res.drained);
  EXPECT_EQ(res.num_jobs, 3);
  const auto& st = res.jobs;
  ASSERT_EQ(st.size(), 3u);
  EXPECT_EQ(st[0].admitted, 0);
  EXPECT_EQ(st[2].admitted, 0);  // skipped past the stuck job 1
  EXPECT_GT(st[1].admitted, 0);
  EXPECT_EQ(st[1].queue_wait(), st[1].admitted);
  // Job 1 starts exactly when a predecessor's servers come back — the
  // consume cycle itself, one before the recorded (post-drain-style)
  // completion.
  EXPECT_TRUE(st[1].admitted == st[0].completed - 1 ||
              st[1].admitted == st[2].completed - 1);
  for (const TenantJobStats& s : st) {
    EXPECT_GT(s.completed, s.admitted);
    EXPECT_GT(s.p99_msg_latency, 0);
    EXPECT_GE(s.p99_msg_latency, s.p50_msg_latency);
  }
  // Deadlines are SLO bookkeeping, not admission control: job 2's
  // one-cycle deadline is missed, job 1's generous one is met, and
  // job 0 has none.
  EXPECT_TRUE(st[1].deadline_met());
  EXPECT_FALSE(st[2].deadline_met());
  EXPECT_FALSE(st[0].deadline_met());
  // The fabric-level completion covers the last tenant.
  for (const TenantJobStats& s : st)
    EXPECT_LE(s.completed, res.completion_time);
}

TEST(TenantScheduler, UnboundedDeadlineStillEndsAfterLastArrival) {
  // The largest Cycle as "no deadline": once every arrival is processed
  // the run must fall through to the drain, not wait for one more.
  MultitenantParams p;
  p.isolated_baseline = true;
  p.jobs = {job("alltoall", 8, 0), job("ring_allreduce", 4, 40)};
  Experiment e(small_spec());
  const MultitenantResult res =
      e.run_multitenant(p, 500, std::numeric_limits<Cycle>::max());
  EXPECT_TRUE(res.drained);
  ASSERT_EQ(res.jobs.size(), 2u);
  for (const TenantJobStats& st : res.jobs) EXPECT_GT(st.isolated_span, 0);
}

void expect_stats_eq(const TenantJobStats& a, const TenantJobStats& b) {
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.avg_msg_latency, b.avg_msg_latency);
  EXPECT_EQ(a.p50_msg_latency, b.p50_msg_latency);
  EXPECT_EQ(a.p99_msg_latency, b.p99_msg_latency);
  EXPECT_EQ(a.isolated_span, b.isolated_span);
  EXPECT_EQ(a.slowdown, b.slowdown);
}

TEST(TenantScheduler, ReRunIsBitIdentical) {
  MultitenantParams p;
  p.placement = "random";  // exercises the placement RNG stream
  p.jobs = {job("alltoall", 8, 0), job("shuffle", 8, 1000)};
  Experiment e(small_spec());
  const MultitenantResult r1 = e.run_multitenant(p, 500, 2000000);
  const MultitenantResult r2 = e.run_multitenant(p, 500, 2000000);
  ASSERT_TRUE(r1.drained);
  EXPECT_EQ(r1.completion_time, r2.completion_time);
  EXPECT_EQ(r1.total_packets, r2.total_packets);
  ASSERT_EQ(r1.jobs.size(), r2.jobs.size());
  for (std::size_t j = 0; j < r1.jobs.size(); ++j)
    expect_stats_eq(r1.jobs[j], r2.jobs[j]);
  ASSERT_EQ(r1.series.num_buckets(), r2.series.num_buckets());
  for (std::size_t i = 0; i < r1.series.num_buckets(); ++i)
    EXPECT_EQ(r1.series.bucket(i), r2.series.bucket(i));
}

// ---------------------------------------------------------------------------
// Golden equivalence: one full-fabric tenant == the legacy workload kind.
// ---------------------------------------------------------------------------

TEST(TenantGolden, SingleTenantFullFabricMatchesLegacyWorkload) {
  // Same spec, same seed: the multitenant path forks the same net (0xE0)
  // and workload-build (0xE1) streams as run_workload, the contiguous
  // policy hands the sole job the identity binding, and the scheduler's
  // message ids start at base 0 — so the engine must see the exact same
  // event stream. This is the bridge that keeps the tenant subsystem
  // honest against the paper-validated workload results.
  WorkloadParams wp;
  wp.name = "alltoall";
  wp.msg_packets = 2;
  Experiment e(small_spec());
  const WorkloadResult legacy = e.run_workload(wp, 500, 2000000);
  ASSERT_TRUE(legacy.drained);

  MultitenantParams p;
  p.isolated_baseline = false;
  p.jobs = {job("alltoall", 16, 0)};
  const MultitenantResult mt = e.run_multitenant(p, 500, 2000000);
  ASSERT_TRUE(mt.drained);
  EXPECT_EQ(mt.completion_time, legacy.completion_time);
  EXPECT_EQ(mt.total_packets, legacy.total_packets);
  ASSERT_EQ(mt.jobs.size(), 1u);
  EXPECT_EQ(mt.jobs[0].admitted, 0);
  EXPECT_EQ(mt.jobs[0].completed, legacy.completion_time);
  EXPECT_EQ(mt.jobs[0].num_messages, legacy.num_messages);
  EXPECT_EQ(mt.jobs[0].avg_msg_latency, legacy.avg_msg_latency);
  EXPECT_EQ(mt.jobs[0].p50_msg_latency, legacy.p50_msg_latency);
  EXPECT_EQ(mt.jobs[0].p99_msg_latency, legacy.p99_msg_latency);
  ASSERT_EQ(mt.series.num_buckets(), legacy.series.num_buckets());
  for (std::size_t i = 0; i < mt.series.num_buckets(); ++i)
    EXPECT_EQ(mt.series.bucket(i), legacy.series.bucket(i));
}

// ---------------------------------------------------------------------------
// Interference regression.
// ---------------------------------------------------------------------------

TEST(TenantRegression, SharingTheFabricSlowsTenantsDown) {
  // Job 0 alone vs job 0 next to a second all-to-all, both runs seeded
  // identically (the multitenant path builds job 0's messages and the
  // network from the same forks either way, and striping places it on
  // the same servers) — so the comparison isolates pure interference.
  MultitenantParams solo;
  solo.placement = "striped";
  solo.isolated_baseline = false;
  solo.jobs = {job("alltoall", 8, 0)};
  MultitenantParams shared = solo;
  shared.jobs.push_back(job("alltoall", 8, 0));
  Experiment e(small_spec());
  const MultitenantResult alone = e.run_multitenant(solo, 500, 2000000);
  const MultitenantResult both = e.run_multitenant(shared, 500, 2000000);
  ASSERT_TRUE(alone.drained);
  ASSERT_TRUE(both.drained);
  EXPECT_GT(both.jobs[0].span(), alone.jobs[0].span());
  EXPECT_GE(both.jobs[0].p99_msg_latency, alone.jobs[0].p99_msg_latency);
}

TEST(TenantRegression, IsolatedBaselineFillsSlowdown) {
  MultitenantParams p;
  p.placement = "striped";
  p.jobs = {job("alltoall", 8, 0), job("alltoall", 8, 0)};
  Experiment e(small_spec());
  const MultitenantResult res = e.run_multitenant(p, 500, 2000000);
  ASSERT_TRUE(res.drained);
  for (const TenantJobStats& st : res.jobs) {
    EXPECT_GT(st.isolated_span, 0);
    EXPECT_GT(st.slowdown, 0);
    EXPECT_EQ(st.slowdown,
              static_cast<double>(st.span()) /
                  static_cast<double>(st.isolated_span));
  }
}

// ---------------------------------------------------------------------------
// Task model: codec and kind plumbing.
// ---------------------------------------------------------------------------

TEST(MultitenantTask, CodecRoundTrips) {
  MultitenantParams p;
  p.placement = "random";
  p.isolated_baseline = false;
  p.jobs = {job("alltoall", 8, 0), job("halo2d", 4, 1500, 90000)};
  p.jobs[1].workload.rounds = 3;
  p.jobs[1].workload.fanout = 2;
  TaskSpec t = TaskSpec::multitenant(small_spec(), p, 1234, 987654);
  t.id = make_task_id("ext_multitenant", 7);
  t.label = "pair";
  t.extra = "mix=pair;fault_frac=0.04";
  const TaskSpec back = TaskSpec::from_json_text(t.to_json());
  EXPECT_EQ(back, t);
  EXPECT_EQ(back.to_json(), t.to_json());
  EXPECT_EQ(back.kind, TaskKind::kMultitenant);
  EXPECT_EQ(back.multitenant_params, p);
  EXPECT_EQ(back.bucket_width, 1234);
  EXPECT_EQ(back.max_cycles, 987654);
}

TEST(MultitenantTask, KindNamesAndResultKind) {
  EXPECT_STREQ(task_kind_name(TaskKind::kMultitenant), "multitenant");
  EXPECT_EQ(task_kind_from_name("multitenant"), TaskKind::kMultitenant);
  EXPECT_EQ(task_result_kind(TaskResult(MultitenantResult{})),
            TaskKind::kMultitenant);
  EXPECT_EQ(task_result_row(TaskResult(MultitenantResult{})), nullptr);
}

// ---------------------------------------------------------------------------
// Distributed bit-identity: 1/2/8 workers, shards, resume, group purge.
// ---------------------------------------------------------------------------

TaskGrid multitenant_grid() {
  TaskGrid grid("mt_test");
  for (const std::string& placement : placement_names()) {
    MultitenantParams p;
    p.placement = placement;
    p.jobs = {job("alltoall", 8, 0), job("ring_allreduce", 8, 1000)};
    ExperimentSpec s = small_spec();
    TaskSpec t = TaskSpec::multitenant(s, p, 500, 2000000);
    t.label = placement;
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

TEST(MultitenantSweep, BitIdenticalAcrossWorkerCounts) {
  const TaskGrid grid = multitenant_grid();
  const std::string ref = csv_of(grid, 1);
  EXPECT_EQ(csv_of(grid, 2), ref);
  EXPECT_EQ(csv_of(grid, 8), ref);
  // Each task expands to its group: one tenant row per job, then the
  // fabric summary — in that order, all sharing the task id.
  const auto records = ResultSink::parse_csv(ref);
  ASSERT_EQ(records.size(), grid.size() * 3);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ResultRecord& rec = records[i];
    EXPECT_EQ(rec.kind, i % 3 == 2 ? "multitenant" : "tenant");
    EXPECT_EQ(rec.task_id, records[i - i % 3].task_id);
    EXPECT_TRUE(rec.drained);
    if (rec.kind == "tenant") {
      EXPECT_NE(rec.extra.find("slowdown="), std::string::npos);
      EXPECT_NE(rec.extra.find("queue_wait="), std::string::npos);
      EXPECT_GT(rec.p99_latency, 0);
    } else {
      EXPECT_NE(rec.extra.find("placement="), std::string::npos);
      EXPECT_GT(rec.completion_time, 0);
    }
  }
}

std::string temp_path(const std::string& name) {
  static const std::string pid = std::to_string(::getpid());
  return testing::TempDir() + "/hxsp_mt_" + pid + "_" + name;
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

void write_prefix(const std::string& path, const std::string& content,
                  std::size_t bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(content.data(), 1, bytes, f), bytes);
  std::fclose(f);
}

TEST(MultitenantSweep, ShardedAndResumedRunsMatchUninterrupted) {
  const TaskGrid grid = multitenant_grid();

  const std::string ref_path = temp_path("ref.csv");
  std::remove(ref_path.c_str());
  RunnerOptions ropts;
  ropts.jobs = 1;
  ropts.csv_path = ref_path;
  ropts.quiet = true;
  run_manifest(grid.tasks(), ropts);
  const std::string ref = slurp(ref_path);
  std::remove(ref_path.c_str());

  // Shard 0/2 + 1/2, merged by task id == the uninterrupted run. The
  // stable merge must keep each group's tenant-rows-then-summary order.
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

  // Kill at 60% of the bytes and resume: byte-identical again.
  const std::string resume_path = temp_path("resume.csv");
  write_prefix(resume_path, ref, ref.size() * 3 / 5);
  RunnerOptions vopts;
  vopts.jobs = 1;
  vopts.csv_path = resume_path;
  vopts.quiet = true;
  const RunnerReport resumed = run_manifest(grid.tasks(), vopts);
  EXPECT_GT(resumed.resumed, 0u);
  EXPECT_EQ(slurp(resume_path), ref);
  std::remove(resume_path.c_str());
}

TEST(MultitenantSweep, ResumePurgesOrphanedTenantRows) {
  // Kill between a group's tenant rows and its summary row: the task
  // must not count as complete, and its already-written tenant rows
  // must be purged before the re-run — otherwise they would duplicate.
  const TaskGrid grid = multitenant_grid();
  const std::string ref_path = temp_path("pref.csv");
  std::remove(ref_path.c_str());
  RunnerOptions ropts;
  ropts.jobs = 1;
  ropts.csv_path = ref_path;
  ropts.quiet = true;
  run_manifest(grid.tasks(), ropts);
  const std::string ref = slurp(ref_path);
  std::remove(ref_path.c_str());

  // Cut just after the last complete tenant row — the final group's
  // summary is missing, its tenant rows orphaned.
  const std::size_t last_tenant = ref.rfind(",tenant,");
  ASSERT_NE(last_tenant, std::string::npos);
  const std::size_t cut = ref.find('\n', last_tenant) + 1;
  ASSERT_LT(cut, ref.size());
  const std::string resume_path = temp_path("purge.csv");
  write_prefix(resume_path, ref, cut);
  RunnerOptions vopts;
  vopts.jobs = 1;
  vopts.csv_path = resume_path;
  vopts.quiet = true;
  const RunnerReport resumed = run_manifest(grid.tasks(), vopts);
  EXPECT_EQ(resumed.executed, 1u);  // only the orphaned group re-runs
  EXPECT_EQ(resumed.resumed, grid.size() - 1);
  EXPECT_EQ(slurp(resume_path), ref);
  std::remove(resume_path.c_str());
}

} // namespace
} // namespace hxsp
