/// \file checkpoint_test.cpp
/// The distributed execution contract of run_manifest (the hxsp_runner
/// core): an uninterrupted run, a run killed after k tasks (clean cut or
/// mid-row) and resumed, and a pair of shards merged back together must
/// all produce byte-identical CSV to the single-process --jobs=1
/// reference. Also locks the runner's bookkeeping (skipped/executed
/// counts) and its refusal to clobber non-checkpoint files.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "harness/sweep.hpp"

namespace hxsp {
namespace {

std::string temp_path(const std::string& name) {
  // Pid-qualified: ctest -j runs each test case as its own process from
  // the same binary, and shared scratch paths (notably ref.csv) would be
  // rewritten by one test while another reads them.
  static const std::string pid = std::to_string(::getpid());
  return testing::TempDir() + "/hxsp_ckpt_" + pid + "_" + name;
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

void spill(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f), content.size());
  std::fclose(f);
}

/// A six-task rate grid, cheap enough to simulate many times per test.
TaskGrid small_grid() {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 2;
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.warmup = 150;
  s.measure = 300;
  TaskGrid grid("ckpt_test");
  int i = 0;
  for (double load : {0.3, 0.5, 0.7, 0.8, 0.9, 1.0}) {
    s.seed = static_cast<std::uint64_t>(40 + i++);
    TaskSpec t = TaskSpec::rate(s, load);
    t.extra = "load=" + std::to_string(load);
    grid.add(std::move(t));
  }
  return grid;
}

/// The uninterrupted --jobs=1 reference CSV bytes for \p grid.
std::string reference_csv(const TaskGrid& grid) {
  const std::string csv_path = temp_path("ref.csv");
  std::remove(csv_path.c_str());
  RunnerOptions opts;
  opts.jobs = 1;
  opts.csv_path = csv_path;
  opts.quiet = true;
  const RunnerReport report = run_manifest(grid.tasks(), opts);
  EXPECT_EQ(report.executed, grid.size());
  std::string ref = slurp(csv_path);
  std::remove(csv_path.c_str());
  return ref;
}

TEST(Checkpoint, UninterruptedRunMatchesInProcessSink) {
  const TaskGrid grid = small_grid();
  const std::string ref = reference_csv(grid);

  // The in-process fast path (what a driver with --csv produces): same
  // tasks through ParallelSweep + ResultSink. Must be byte-identical —
  // the driver-vs-runner half of the determinism contract.
  ResultSink sink("ckpt_test");
  ParallelSweep sweep(2);
  sweep.run_tasks(grid.tasks(), [&](std::size_t i, const TaskResult& r) {
    sink.add(grid[i], r);
  });
  EXPECT_EQ(sink.csv(), ref);
}

TEST(Checkpoint, ResumeAfterCleanKillIsByteIdentical) {
  const TaskGrid grid = small_grid();
  const std::string ref = reference_csv(grid);
  const std::string path = temp_path("resume_clean.csv");

  // Simulate a kill after 3 completed tasks: the file holds the header
  // plus exactly three rows.
  const auto full_records = ResultSink::parse_csv(ref);
  ASSERT_EQ(full_records.size(), 6u);
  std::string partial = ResultSink::csv_header();
  for (std::size_t i = 0; i < 3; ++i)
    partial += ResultSink::csv_line(full_records[i]);
  spill(path, partial);

  RunnerOptions opts;
  opts.jobs = 1;
  opts.csv_path = path;
  opts.quiet = true;
  const RunnerReport report = run_manifest(grid.tasks(), opts);
  EXPECT_EQ(report.resumed, 3u);
  EXPECT_EQ(report.executed, 3u);
  EXPECT_EQ(slurp(path), ref);
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumeAfterMidRowTruncationIsByteIdentical) {
  const TaskGrid grid = small_grid();
  const std::string ref = reference_csv(grid);
  const std::string path = temp_path("resume_torn.csv");

  // Kill mid-write: cut the file inside the 5th row. The partial row
  // must be discarded (its task re-runs), not half-parsed.
  const auto full_records = ResultSink::parse_csv(ref);
  std::string torn = ResultSink::csv_header();
  for (std::size_t i = 0; i < 4; ++i)
    torn += ResultSink::csv_line(full_records[i]);
  const std::string row5 = ResultSink::csv_line(full_records[4]);
  torn += row5.substr(0, row5.size() / 2);
  spill(path, torn);

  RunnerOptions opts;
  opts.jobs = 1;
  opts.csv_path = path;
  opts.quiet = true;
  const RunnerReport report = run_manifest(grid.tasks(), opts);
  EXPECT_EQ(report.resumed, 4u);
  EXPECT_EQ(report.executed, 2u);
  EXPECT_EQ(slurp(path), ref);
  std::remove(path.c_str());
}

TEST(Checkpoint, TornHeaderRestartsFromScratch) {
  const TaskGrid grid = small_grid();
  const std::string ref = reference_csv(grid);
  const std::string path = temp_path("torn_header.csv");

  // Killed while writing the very header: the file is a strict prefix
  // of it. The runner must restart cleanly, not abort.
  spill(path, ResultSink::csv_header().substr(0, 10));

  RunnerOptions opts;
  opts.jobs = 1;
  opts.csv_path = path;
  opts.quiet = true;
  const RunnerReport report = run_manifest(grid.tasks(), opts);
  EXPECT_EQ(report.resumed, 0u);
  EXPECT_EQ(report.executed, grid.size());
  EXPECT_EQ(slurp(path), ref);
  std::remove(path.c_str());
}

TEST(Checkpoint, RefusesToClobberForeignFile) {
  const TaskGrid grid = small_grid();
  const std::string path = temp_path("foreign.csv");
  spill(path, "this,is,not\na,result,checkpoint\n");

  RunnerOptions opts;
  opts.jobs = 1;
  opts.csv_path = path;
  opts.quiet = true;
  EXPECT_DEATH(run_manifest(grid.tasks(), opts), "not a result checkpoint");
  EXPECT_EQ(slurp(path), "this,is,not\na,result,checkpoint\n");  // untouched
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumeOfCompleteRunExecutesNothing) {
  const TaskGrid grid = small_grid();
  const std::string ref = reference_csv(grid);
  const std::string path = temp_path("resume_done.csv");
  spill(path, ref);

  RunnerOptions opts;
  opts.jobs = 1;
  opts.csv_path = path;
  opts.quiet = true;
  const RunnerReport report = run_manifest(grid.tasks(), opts);
  EXPECT_EQ(report.resumed, grid.size());
  EXPECT_EQ(report.executed, 0u);
  EXPECT_EQ(slurp(path), ref);
  std::remove(path.c_str());
}

TEST(Checkpoint, ShardUnionMergesToReference) {
  const TaskGrid grid = small_grid();
  const std::string ref = reference_csv(grid);

  // Two shard runs (different jobs counts on purpose), then the merge.
  std::vector<std::vector<ResultRecord>> parts;
  std::size_t shard_total = 0;
  for (int index = 0; index < 2; ++index) {
    const std::string path =
        temp_path("shard" + std::to_string(index) + ".csv");
    std::remove(path.c_str());
    RunnerOptions opts;
    opts.jobs = index + 1;
    opts.shard = ShardSpec{index, 2};
    opts.csv_path = path;
    opts.quiet = true;
    const RunnerReport report = run_manifest(grid.tasks(), opts);
    shard_total += report.executed;
    parts.push_back(ResultSink::parse_csv(slurp(path)));
    std::remove(path.c_str());
  }
  EXPECT_EQ(shard_total, grid.size());
  const auto merged = ResultSink::merge(parts);
  EXPECT_EQ(ResultSink::csv(merged), ref);
}

TEST(Checkpoint, ShardedResumeStaysWithinItsSlice) {
  const TaskGrid grid = small_grid();
  const std::string path = temp_path("shard_resume.csv");
  std::remove(path.c_str());

  RunnerOptions opts;
  opts.jobs = 1;
  opts.shard = ShardSpec{1, 2};
  opts.csv_path = path;
  opts.quiet = true;
  const RunnerReport first = run_manifest(grid.tasks(), opts);
  EXPECT_EQ(first.executed, 3u);  // tasks 1, 3, 5

  const RunnerReport second = run_manifest(grid.tasks(), opts);
  EXPECT_EQ(second.resumed, 3u);
  EXPECT_EQ(second.executed, 0u);
  std::remove(path.c_str());
}

} // namespace
} // namespace hxsp
