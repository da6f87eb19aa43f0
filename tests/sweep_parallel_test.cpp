/// \file sweep_parallel_test.cpp
/// The sweep engine's contract: fanning a sweep across worker threads
/// changes wall-clock time and nothing else. Serial loops and
/// ParallelSweep with 1, 2 and 8 workers must produce bit-identical
/// ResultRows, in submission order, run after run.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

#include "harness/sweep.hpp"
#include "util/thread_pool.hpp"

namespace hxsp {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool basics.
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryJob) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.wait_idle();  // no jobs: returns immediately
  pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&] { ++count; });
  pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, ResolveWorkersDefaultsToHardware) {
  EXPECT_GE(ThreadPool::resolve_workers(0), 1);
  EXPECT_EQ(ThreadPool::resolve_workers(3), 3);
}

// ---------------------------------------------------------------------------
// ParallelSweep determinism.
// ---------------------------------------------------------------------------

ExperimentSpec small_spec() {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 2;
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.warmup = 300;
  s.measure = 600;
  s.seed = 7;
  return s;
}

void expect_identical(const ResultRow& a, const ResultRow& b,
                      const char* what) {
  EXPECT_EQ(a.mechanism, b.mechanism) << what;
  EXPECT_EQ(a.pattern, b.pattern) << what;
  EXPECT_EQ(a.offered, b.offered) << what;
  EXPECT_EQ(a.generated, b.generated) << what;
  EXPECT_EQ(a.accepted, b.accepted) << what;
  EXPECT_EQ(a.avg_latency, b.avg_latency) << what;
  EXPECT_EQ(a.jain, b.jain) << what;
  EXPECT_EQ(a.escape_frac, b.escape_frac) << what;
  EXPECT_EQ(a.forced_frac, b.forced_frac) << what;
  EXPECT_EQ(a.p99_latency, b.p99_latency) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.packets, b.packets) << what;
}

/// One rate task per load — the rate sweep's unit of work.
std::vector<TaskSpec> rate_tasks(const ExperimentSpec& spec,
                                 const std::vector<double>& loads) {
  std::vector<TaskSpec> tasks;
  for (double load : loads) tasks.push_back(TaskSpec::rate(spec, load));
  return tasks;
}

/// The ResultRow of every rate result, in order.
std::vector<ResultRow> rows_of(const std::vector<TaskResult>& results) {
  std::vector<ResultRow> rows;
  for (const TaskResult& r : results) rows.push_back(std::get<ResultRow>(r));
  return rows;
}

TEST(ParallelSweep, MatchesSerialLoopBitIdentically) {
  const ExperimentSpec spec = small_spec();
  const std::vector<double> loads = {0.2, 0.5, 0.8, 1.0};

  // The pre-engine way: one Experiment reused across the load sweep.
  Experiment serial_exp(spec);
  std::vector<ResultRow> serial;
  for (double load : loads) serial.push_back(serial_exp.run_load(load));

  const auto tasks = rate_tasks(spec, loads);
  for (int workers : {1, 2, 8}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    ParallelSweep sweep(workers);
    EXPECT_EQ(sweep.workers(), workers);
    const std::vector<ResultRow> par = rows_of(sweep.run_tasks(tasks));
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      expect_identical(serial[i], par[i], "serial vs parallel");
  }
}

TEST(ParallelSweep, RepeatedRunsAreIdentical) {
  const auto tasks = rate_tasks(small_spec(), {0.4, 0.9, 1.0});
  ParallelSweep sweep(2);
  const auto first = rows_of(sweep.run_tasks(tasks));
  const auto second = rows_of(sweep.run_tasks(tasks));  // same pool, fresh run
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    expect_identical(first[i], second[i], "run 1 vs run 2");
}

TEST(ParallelSweep, ResultsDeliveredInSubmissionOrder) {
  // Mixed costs (different loads and seeds) so workers finish out of
  // order; on_result must still observe 0, 1, 2, ...
  std::vector<TaskSpec> tasks;
  for (int t = 0; t < 8; ++t) {
    TaskSpec task = TaskSpec::rate(small_spec(), t % 2 ? 1.0 : 0.1);
    task.spec.seed = 100 + static_cast<std::uint64_t>(t);
    task.spec.measure = t % 2 ? 900 : 200;
    tasks.push_back(task);
  }
  ParallelSweep sweep(4);
  std::vector<std::size_t> order;
  const auto results = sweep.run_tasks(
      tasks, [&](std::size_t i, const TaskResult& r) {
        order.push_back(i);
        EXPECT_EQ(std::get<ResultRow>(r).offered, tasks[i].offered);
      });
  ASSERT_EQ(results.size(), tasks.size());
  std::vector<std::size_t> expected(tasks.size());
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ParallelSweep, ExpandSeedsGivesDistinctStreams) {
  const auto tasks = ParallelSweep::expand_task_seeds(
      TaskSpec::rate(small_spec(), 1.0), 40, 3);
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(tasks[0].spec.seed, 40u);
  EXPECT_EQ(tasks[1].spec.seed, 41u);
  EXPECT_EQ(tasks[2].spec.seed, 42u);
  for (const auto& t : tasks) {
    EXPECT_EQ(t.kind, TaskKind::kRate);
    EXPECT_EQ(t.offered, 1.0);
  }

  // Distinct seeds must actually change the sampled traffic/runs.
  ParallelSweep sweep(2);
  const auto rows = rows_of(sweep.run_tasks(tasks));
  EXPECT_FALSE(rows[0].accepted == rows[1].accepted &&
               rows[1].accepted == rows[2].accepted &&
               rows[0].avg_latency == rows[1].avg_latency);
}

TEST(ParallelSweep, FreshExperimentMatchesReuse) {
  // The engine builds one Experiment per task; a caller reusing one
  // Experiment for repeated run_load calls must see the same rows, or
  // the "bit-identical to serial" promise is vacuous.
  const ExperimentSpec spec = small_spec();
  Experiment reused(spec);
  const ResultRow first = reused.run_load(0.7);
  const ResultRow again = reused.run_load(0.7);
  expect_identical(first, again, "reused Experiment must be idempotent");
  const ResultRow fresh =
      std::get<ResultRow>(run_task(TaskSpec::rate(spec, 0.7)));
  expect_identical(first, fresh, "fresh vs reused Experiment");
}

TEST(ParallelSweep, EmptyPointListIsFine) {
  ParallelSweep sweep(2);
  EXPECT_TRUE(sweep.run_tasks({}).empty());
}

TEST(ParallelSweep, OnResultExceptionDrainsAndPropagates) {
  // A throwing on_result must reach the caller only after the pool has
  // drained (in-flight workers reference run_tasks()'s locals), and must
  // leave the sweep reusable.
  const auto tasks = rate_tasks(small_spec(), {0.3, 0.6, 0.9, 1.0});
  ParallelSweep sweep(4);
  EXPECT_THROW(sweep.run_tasks(tasks,
                               [](std::size_t i, const TaskResult&) {
                                 if (i == 1) throw std::runtime_error("boom");
                               }),
               std::runtime_error);
  // Same pool, still functional.
  const auto rows = rows_of(sweep.run_tasks(tasks));
  ASSERT_EQ(rows.size(), tasks.size());
  for (const ResultRow& r : rows) EXPECT_GT(r.packets, 0);
}

// Faulted specs exercise table rebuilds and the escape path in parallel.
TEST(ParallelSweep, FaultedSpecsMatchSerial) {
  ExperimentSpec spec = small_spec();
  spec.fault_links = {0, 3, 11};
  const std::vector<double> loads = {0.6, 1.0};

  std::vector<ResultRow> serial;
  for (double l : loads) {
    Experiment e(spec);
    serial.push_back(e.run_load(l));
  }
  ParallelSweep sweep(8);
  const auto par = rows_of(sweep.run_tasks(rate_tasks(spec, loads)));
  ASSERT_EQ(par.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    expect_identical(serial[i], par[i], "faulted serial vs parallel");
}

} // namespace
} // namespace hxsp
