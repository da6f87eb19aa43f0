/// \file tsan_stress_test.cpp
/// Concurrency stress for ThreadPool and ParallelSweep, written for the
/// TSan build (cmake --preset tsan): many tiny tasks so scheduling
/// interleavings churn, workers that throw mid-run so the exception-drain
/// path races against still-queued jobs. The tests also pass (as plain
/// functional tests) in regular builds, so they ride the default suite;
/// under -fsanitize=thread any data race in the pool or the map() delivery
/// path becomes a failure.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "util/thread_pool.hpp"

namespace hxsp {
namespace {

TEST(TsanStress, ManyTinyJobsAllRun) {
  // Thousands of near-empty jobs: maximizes queue handoff churn, the
  // classic spot for a racy in_flight_/queue_ protocol.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  const int kJobs = 5000;
  for (int i = 0; i < kJobs; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), kJobs);
}

TEST(TsanStress, RepeatedWaitIdleBarriers) {
  // Interleave tiny bursts with barriers: wait_idle must observe every
  // prior job's effects (the happens-before edge tests rely on).
  ThreadPool pool(4);
  int plain_counter = 0; // unsynchronized on purpose: barrier must order it
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> burst{0};
    for (int i = 0; i < 20; ++i)
      pool.submit([&burst] { burst.fetch_add(1, std::memory_order_relaxed); });
    pool.wait_idle();
    EXPECT_EQ(burst.load(), 20);
    ++plain_counter; // only the owner thread, between barriers
  }
  EXPECT_EQ(plain_counter, 50);
}

TEST(TsanStress, SubmitFromInsideJobs) {
  // Jobs enqueueing follow-up jobs exercise submit() racing worker_loop's
  // queue pops from worker threads themselves.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&pool, &count] {
      count.fetch_add(1, std::memory_order_relaxed);
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 400);
}

TEST(TsanStress, MapManyTinyTasksOrdered) {
  // map() with trivial work: delivery order must be exact and every
  // result slot written by exactly one worker.
  ParallelSweep sweep(4);
  const std::size_t n = 2000;
  std::size_t delivered = 0;
  std::vector<int> out = sweep.map<int>(
      n, [](std::size_t i) { return static_cast<int>(i) * 3; },
      [&](std::size_t i, const int& v) {
        EXPECT_EQ(i, delivered) << "delivery out of order";
        EXPECT_EQ(v, static_cast<int>(i) * 3);
        ++delivered;
      });
  ASSERT_EQ(out.size(), n);
  EXPECT_EQ(delivered, n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(out[i], static_cast<int>(i) * 3);
}

TEST(TsanStress, ThrowingWorkersDrainCleanly) {
  // A worker throwing mid-grid: map() must drain every in-flight job
  // before the exception unwinds (no worker may touch freed locals), and
  // the pool must stay usable afterwards. Repeat to churn interleavings.
  ParallelSweep sweep(4);
  for (int round = 0; round < 25; ++round) {
    try {
      sweep.map<int>(200, [round](std::size_t i) -> int {
        if (i == static_cast<std::size_t>(17 + round)) {
          throw std::runtime_error("boom " + std::to_string(round));
        }
        return static_cast<int>(i);
      });
      FAIL() << "expected the round-" << round << " throw to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "boom " + std::to_string(round));
    }
  }
  // Pool survived 25 aborted grids: a clean run still works.
  const auto ok = sweep.map<int>(50, [](std::size_t i) {
    return static_cast<int>(i) + 1;
  });
  EXPECT_EQ(ok.back(), 50);
}

TEST(TsanStress, TinySimulationGridMatchesSerial) {
  // Real simulations, tiny enough to stay fast: the parallel result must
  // be bit-identical to the serial path, under contention.
  ExperimentSpec s;
  s.sides = {2, 2};
  s.servers_per_switch = 1;
  s.mechanism = "minimal";
  s.pattern = "uniform";
  s.sim.num_vcs = 2;
  s.warmup = 100;
  s.measure = 200;
  s.seed = 3;
  std::vector<TaskSpec> tasks;
  for (double load : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6})
    tasks.push_back(TaskSpec::rate(s, load));
  ParallelSweep sweep(4);
  const std::vector<TaskResult> par = sweep.run_tasks(tasks);
  ASSERT_EQ(par.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const ResultRow& row = std::get<ResultRow>(par[i]);
    const ResultRow serial = std::get<ResultRow>(run_task(tasks[i]));
    EXPECT_EQ(row.packets, serial.packets) << "point " << i;
    EXPECT_DOUBLE_EQ(row.accepted, serial.accepted) << "point " << i;
    EXPECT_DOUBLE_EQ(row.avg_latency, serial.avg_latency) << "point " << i;
  }
}

TEST(TsanStress, StagedStepPipelineUnderEightWorkerPool) {
  // The intra-run parallel step under maximum churn: an 8x8 HyperX at
  // near-saturation load keeps hundreds of routers transmitting per
  // cycle, so both pooled phases engage — candidate precompute and the
  // link-phase collect into per-worker staging buffers. Eight workers on
  // few cores churn interleavings across the stage/commit boundary; under
  // TSan any missing happens-before edge between a worker's staged writes
  // and the serial commit becomes a failure. The auditor additionally
  // proves the staging buffers are fully drained at every cycle boundary,
  // and the result must still be bit-identical to serial stepping.
  ExperimentSpec s;
  s.sides = {8, 8};
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.sim.audit_interval = 256;
  s.warmup = 100;
  s.measure = 300;
  s.seed = 11;
  Experiment e(s);
  const ResultRow serial = e.run_load(0.9);
  ASSERT_GT(serial.packets, 0);
  e.set_step_threads(8);
  const ResultRow par = e.run_load(0.9);
  EXPECT_EQ(par.packets, serial.packets);
  EXPECT_EQ(par.accepted, serial.accepted);
  EXPECT_EQ(par.avg_latency, serial.avg_latency);
  EXPECT_EQ(par.p99_latency, serial.p99_latency);
}

} // namespace
} // namespace hxsp
