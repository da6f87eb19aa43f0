/// \file sweep_tasks_test.cpp
/// The generalized sweep engine's contract for heterogeneous task kinds:
/// completion-mode and dynamic-fault-mode tasks (and mixed grids of all
/// three kinds) must produce results bit-identical to the serial loop at
/// any worker count, delivered strictly in submission order, with the
/// exception-drain path intact for every variant. Also locks down the
/// ext_dynamic_faults convergence invariant: once all FaultEvents have
/// fired, the dynamic run reaches the steady state of a static run with
/// the same fault set.

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "harness/sweep.hpp"
#include "topology/faults.hpp"

namespace hxsp {
namespace {

ExperimentSpec small_spec(const std::string& mech = "polsp") {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 2;
  s.mechanism = mech;
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

void expect_identical(const TimeSeries& a, const TimeSeries& b,
                      const char* what) {
  EXPECT_EQ(a.width(), b.width()) << what;
  ASSERT_EQ(a.num_buckets(), b.num_buckets()) << what;
  for (std::size_t i = 0; i < a.num_buckets(); ++i)
    EXPECT_EQ(a.bucket(i), b.bucket(i)) << what << " bucket " << i;
}

void expect_identical(const CompletionResult& a, const CompletionResult& b,
                      const char* what) {
  EXPECT_EQ(a.mechanism, b.mechanism) << what;
  EXPECT_EQ(a.pattern, b.pattern) << what;
  EXPECT_EQ(a.drained, b.drained) << what;
  EXPECT_EQ(a.completion_time, b.completion_time) << what;
  EXPECT_EQ(a.num_servers, b.num_servers) << what;
  expect_identical(a.series, b.series, what);
}

void expect_identical(const DynamicResult& a, const DynamicResult& b,
                      const char* what) {
  expect_identical(a.row, b.row, what);
  EXPECT_EQ(a.dropped, b.dropped) << what;
  EXPECT_EQ(a.num_servers, b.num_servers) << what;
  expect_identical(a.series, b.series, what);
}

std::vector<FaultEvent> small_events(const ExperimentSpec& spec, int n) {
  HyperX scratch(spec.sides, spec.servers_per_switch);
  Rng rng(spec.seed + 17);
  const auto links = random_fault_links(scratch.graph(), n, rng, true);
  std::vector<FaultEvent> events;
  for (int i = 0; i < n; ++i)
    events.push_back({spec.warmup + (i + 1) * spec.measure / (n + 1),
                      links[static_cast<std::size_t>(i)]});
  return events;
}

// ---------------------------------------------------------------------------
// Task model basics.
// ---------------------------------------------------------------------------

TEST(TaskSpec, FactoriesSetKindAndParameters) {
  const ExperimentSpec spec = small_spec();

  const TaskSpec r = TaskSpec::rate(spec, 0.7);
  EXPECT_EQ(r.kind, TaskKind::kRate);
  EXPECT_EQ(r.offered, 0.7);

  const TaskSpec c = TaskSpec::completion(spec, 40, 250, 100000);
  EXPECT_EQ(c.kind, TaskKind::kCompletion);
  EXPECT_EQ(c.packets_per_server, 40);
  EXPECT_EQ(c.bucket_width, 250);
  EXPECT_EQ(c.max_cycles, 100000);

  const TaskSpec d = TaskSpec::dynamic_faults(spec, 0.6, {{500, 3}});
  EXPECT_EQ(d.kind, TaskKind::kDynamic);
  EXPECT_EQ(d.offered, 0.6);
  ASSERT_EQ(d.events.size(), 1u);
  EXPECT_EQ(d.events[0].link, 3);

  EXPECT_STREQ(task_kind_name(TaskKind::kRate), "rate");
  EXPECT_STREQ(task_kind_name(TaskKind::kCompletion), "completion");
  EXPECT_STREQ(task_kind_name(TaskKind::kDynamic), "dynamic");
}

TEST(TaskSpec, ResultAccessorsMatchKind) {
  const ExperimentSpec spec = small_spec();
  const TaskResult rate = run_task(TaskSpec::rate(spec, 0.5));
  EXPECT_EQ(task_result_kind(rate), TaskKind::kRate);
  ASSERT_NE(task_result_row(rate), nullptr);
  EXPECT_EQ(task_result_row(rate)->offered, 0.5);

  const TaskResult comp =
      run_task(TaskSpec::completion(spec, 10, 250, 100000));
  EXPECT_EQ(task_result_kind(comp), TaskKind::kCompletion);
  EXPECT_EQ(task_result_row(comp), nullptr);
  EXPECT_EQ(std::get<CompletionResult>(comp).mechanism, "PolSP");
  EXPECT_EQ(std::get<CompletionResult>(comp).pattern, "uniform");

  const TaskResult dyn = run_task(
      TaskSpec::dynamic_faults(spec, 0.5, small_events(spec, 2)));
  EXPECT_EQ(task_result_kind(dyn), TaskKind::kDynamic);
  ASSERT_NE(task_result_row(dyn), nullptr);
  EXPECT_EQ(task_result_row(dyn)->mechanism, "PolSP");
}

TEST(TaskSpec, ExpandTaskSeedsKeepsKindAndParameters) {
  const TaskSpec proto = TaskSpec::completion(small_spec(), 16, 500, 50000);
  const auto tasks = ParallelSweep::expand_task_seeds(proto, 90, 3);
  ASSERT_EQ(tasks.size(), 3u);
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(tasks[static_cast<std::size_t>(t)].kind, TaskKind::kCompletion);
    EXPECT_EQ(tasks[static_cast<std::size_t>(t)].spec.seed,
              90u + static_cast<std::uint64_t>(t));
    EXPECT_EQ(tasks[static_cast<std::size_t>(t)].packets_per_server, 16);
  }
}

// ---------------------------------------------------------------------------
// Bit-identity: serial loop vs 1/2/8 workers, per task kind.
// ---------------------------------------------------------------------------

TEST(TaskSpecs, CompletionMatchesSerialBitIdentically) {
  std::vector<TaskSpec> tasks;
  for (const char* mech : {"omnisp", "polsp"})
    for (long packets : {8L, 16L})
      tasks.push_back(
          TaskSpec::completion(small_spec(mech), packets, 250, 200000));

  // The serial reference: one fresh Experiment per task, like a pre-engine
  // driver loop.
  std::vector<CompletionResult> serial;
  for (const TaskSpec& task : tasks) {
    Experiment e(task.spec);
    serial.push_back(e.run_completion(task.packets_per_server,
                                      task.bucket_width, task.max_cycles));
    EXPECT_TRUE(serial.back().drained);
  }

  for (int workers : {1, 2, 8}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    ParallelSweep sweep(workers);
    const auto par = sweep.run_tasks(tasks);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      expect_identical(serial[i], std::get<CompletionResult>(par[i]),
                       "serial vs parallel completion");
  }
}

TEST(TaskSpecs, DynamicMatchesSerialBitIdentically) {
  std::vector<TaskSpec> tasks;
  for (const char* mech : {"omnisp", "polsp"}) {
    const ExperimentSpec spec = small_spec(mech);
    tasks.push_back(
        TaskSpec::dynamic_faults(spec, 0.6, small_events(spec, 2)));
    tasks.push_back(
        TaskSpec::dynamic_faults(spec, 0.9, small_events(spec, 3)));
  }

  std::vector<DynamicResult> serial;
  for (const TaskSpec& task : tasks) {
    Experiment e(task.spec);
    serial.push_back(e.run_load_dynamic(task.offered, task.events));
  }

  for (int workers : {1, 2, 8}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    ParallelSweep sweep(workers);
    const auto par = sweep.run_tasks(tasks);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      expect_identical(serial[i], std::get<DynamicResult>(par[i]),
                       "serial vs parallel dynamic");
  }
}

TEST(TaskSpecs, RateTasksMatchRunExactly) {
  const ExperimentSpec spec = small_spec();
  const std::vector<double> loads = {0.3, 0.7, 1.0};
  std::vector<TaskSpec> tasks;
  for (double l : loads) tasks.push_back(TaskSpec::rate(spec, l));

  // The serial reference: one Experiment per load, as every worker builds.
  std::vector<ResultRow> rows;
  for (double l : loads) rows.push_back(Experiment(spec).run_load(l));
  ParallelSweep sweep(2);
  const auto results = sweep.run_tasks(tasks);
  ASSERT_EQ(results.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    expect_identical(rows[i], std::get<ResultRow>(results[i]),
                     "run_load vs run_tasks");
}

TEST(TaskSpecs, NearSaturationMatchesSerialBitIdentically) {
  // Near/at saturation every engine structure is under pressure: ring
  // buffers run full, the packet pool recycles at the maximum rate, heads
  // park and wake constantly, and the escape subnetwork carries forced
  // hops. A faulted spec on both SurePath mechanisms at loads up to 1.0
  // must still be bit-identical to the serial loop at any worker count —
  // the regression tripwire for the pooled/ring/active-set engine.
  for (const std::string& mech : {std::string("polsp"), std::string("omnisp")}) {
    ExperimentSpec spec = small_spec(mech);
    HyperX scratch(spec.sides, spec.servers_per_switch);
    Rng frng(spec.seed + 23);
    spec.fault_links = random_fault_links(scratch.graph(), 3, frng, true);

    std::vector<TaskSpec> tasks;
    for (double l : {0.85, 0.95, 1.0}) tasks.push_back(TaskSpec::rate(spec, l));

    std::vector<ResultRow> serial;
    for (const TaskSpec& t : tasks)
      serial.push_back(std::get<ResultRow>(run_task(t)));
    // Saturated queues mean real backpressure reached the servers.
    EXPECT_LT(serial.back().accepted, serial.back().offered);

    for (int workers : {1, 2, 8}) {
      ParallelSweep sweep(workers);
      const auto par = sweep.run_tasks(tasks);
      ASSERT_EQ(par.size(), serial.size());
      const std::string what =
          mech + " near-saturation, workers=" + std::to_string(workers);
      for (std::size_t i = 0; i < serial.size(); ++i)
        expect_identical(serial[i], std::get<ResultRow>(par[i]), what.c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Ordering and repeatability for mixed-kind grids.
// ---------------------------------------------------------------------------

std::vector<TaskSpec> mixed_tasks() {
  const ExperimentSpec spec = small_spec();
  std::vector<TaskSpec> tasks;
  tasks.push_back(TaskSpec::completion(spec, 12, 250, 200000));
  tasks.push_back(TaskSpec::rate(spec, 0.8));
  tasks.push_back(TaskSpec::dynamic_faults(spec, 0.6, small_events(spec, 2)));
  tasks.push_back(TaskSpec::rate(spec, 0.2));
  tasks.push_back(TaskSpec::completion(spec, 4, 250, 200000));
  return tasks;
}

TEST(TaskSpecs, MixedKindsDeliveredInSubmissionOrder) {
  const auto tasks = mixed_tasks();
  ParallelSweep sweep(4);
  std::vector<std::size_t> order;
  const auto results =
      sweep.run_tasks(tasks, [&](std::size_t i, const TaskResult& r) {
        order.push_back(i);
        EXPECT_EQ(task_result_kind(r), tasks[i].kind);
      });
  ASSERT_EQ(results.size(), tasks.size());
  std::vector<std::size_t> expected(tasks.size());
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
  for (std::size_t i = 0; i < tasks.size(); ++i)
    EXPECT_EQ(task_result_kind(results[i]), tasks[i].kind);
}

TEST(TaskSpecs, MixedRepeatedRunsAreIdentical) {
  const auto tasks = mixed_tasks();
  ParallelSweep sweep(2);
  const auto first = sweep.run_tasks(tasks);
  const auto second = sweep.run_tasks(tasks);  // same pool, fresh run
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    switch (tasks[i].kind) {
      case TaskKind::kRate:
        expect_identical(std::get<ResultRow>(first[i]),
                         std::get<ResultRow>(second[i]), "repeat rate");
        break;
      case TaskKind::kCompletion:
        expect_identical(std::get<CompletionResult>(first[i]),
                         std::get<CompletionResult>(second[i]),
                         "repeat completion");
        break;
      case TaskKind::kDynamic:
        expect_identical(std::get<DynamicResult>(first[i]),
                         std::get<DynamicResult>(second[i]), "repeat dynamic");
        break;
      case TaskKind::kWorkload:
      case TaskKind::kMultitenant:
        // mixed_tasks() has neither; those kinds' repeat/worker-count
        // identity lives in tests/workload_test.cpp and
        // tests/tenant_test.cpp.
        FAIL() << "unexpected workload/multitenant task in mixed grid";
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Exception drain, per variant: a throwing on_result reaches the caller
// only after the pool has drained, and leaves the sweep reusable.
// ---------------------------------------------------------------------------

void check_exception_drain(std::vector<TaskSpec> tasks) {
  ParallelSweep sweep(4);
  std::size_t delivered = 0;
  EXPECT_THROW(sweep.run_tasks(tasks,
                               [&](std::size_t i, const TaskResult&) {
                                 delivered = i + 1;
                                 if (i == 1) throw std::runtime_error("boom");
                               }),
               std::runtime_error);
  EXPECT_EQ(delivered, 2u);  // delivery stopped exactly at the throw
  const auto results = sweep.run_tasks(tasks);  // same pool, still functional
  ASSERT_EQ(results.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    EXPECT_EQ(task_result_kind(results[i]), tasks[i].kind);
}

TEST(TaskSpecs, CompletionExceptionDrainsAndPropagates) {
  const ExperimentSpec spec = small_spec();
  std::vector<TaskSpec> tasks;
  for (long packets : {4L, 8L, 12L, 16L})
    tasks.push_back(TaskSpec::completion(spec, packets, 250, 200000));
  check_exception_drain(std::move(tasks));
}

TEST(TaskSpecs, DynamicExceptionDrainsAndPropagates) {
  const ExperimentSpec spec = small_spec();
  std::vector<TaskSpec> tasks;
  for (double load : {0.3, 0.5, 0.7, 0.9})
    tasks.push_back(
        TaskSpec::dynamic_faults(spec, load, small_events(spec, 2)));
  check_exception_drain(std::move(tasks));
}

// ---------------------------------------------------------------------------
// The generic ordered map (what non-simulation drivers run on).
// ---------------------------------------------------------------------------

TEST(SweepMap, OrderedAndDeterministic) {
  ParallelSweep sweep(4);
  std::vector<std::size_t> order;
  const auto out = sweep.map<int>(
      16, [](std::size_t i) { return static_cast<int>(i) * 3 + 1; },
      [&](std::size_t i, const int& v) {
        order.push_back(i);
        EXPECT_EQ(v, static_cast<int>(i) * 3 + 1);
      });
  ASSERT_EQ(out.size(), 16u);
  std::vector<std::size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(SweepMap, WorkerExceptionDrainsAndPropagates) {
  ParallelSweep sweep(4);
  EXPECT_THROW(sweep.map<int>(8,
                              [](std::size_t i) {
                                if (i == 3) throw std::runtime_error("bad");
                                return static_cast<int>(i);
                              }),
               std::runtime_error);
  const auto out =
      sweep.map<int>(4, [](std::size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
}

// ---------------------------------------------------------------------------
// ext_dynamic_faults convergence invariant: after all FaultEvents fire,
// the dynamic run's steady state matches a static run with the same
// fault set. Mirrors the driver's construction (fault links drawn with
// seed+17, events inside the measurement window) but places the events
// early so most of the window is steady state.
// ---------------------------------------------------------------------------

TEST(TaskSpecs, DynamicConvergesToStaticReference) {
  ExperimentSpec spec;
  spec.sides = {4, 4};
  spec.servers_per_switch = 4;
  spec.mechanism = "polsp";
  spec.pattern = "uniform";
  spec.sim.num_vcs = 4;
  spec.warmup = 1000;
  spec.measure = 8000;
  spec.seed = 3;

  HyperX scratch(spec.sides, spec.servers_per_switch);
  Rng rng(spec.seed + 17);
  const auto links = random_fault_links(scratch.graph(), 3, rng, true);

  // All failures strike in the first 10% of the window; the remaining 90%
  // must be the static network's steady state.
  std::vector<FaultEvent> events;
  for (int i = 0; i < 3; ++i)
    events.push_back(
        {spec.warmup + (i + 1) * spec.measure / 40,
         links[static_cast<std::size_t>(i)]});

  ExperimentSpec static_spec = spec;
  static_spec.fault_links = links;

  ParallelSweep sweep(2);
  const auto results = sweep.run_tasks(
      {TaskSpec::dynamic_faults(spec, 0.5, events),
       TaskSpec::rate(static_spec, 0.5)});
  const DynamicResult& dyn = std::get<DynamicResult>(results[0]);
  const ResultRow& ref = std::get<ResultRow>(results[1]);

  // Whole-window accepted rate: within noise of the static reference.
  EXPECT_NEAR(dyn.row.accepted, ref.accepted, 0.06);

  // Steady state proper: the average rate over the last quarter of the
  // trace (long after the last event) must match the static reference.
  const std::size_t buckets = dyn.series.num_buckets();
  ASSERT_GE(buckets, 8u);
  double tail = 0;
  const std::size_t tail_start = buckets - buckets / 4;
  for (std::size_t b = tail_start; b < buckets; ++b)
    tail += dyn.series.rate(b, static_cast<double>(dyn.num_servers));
  tail /= static_cast<double>(buckets - tail_start);
  EXPECT_NEAR(tail, ref.accepted, 0.08);

  // And the events really did fire: links died, so some packets dropped
  // or the escape saw forced traffic; at minimum the run differs from a
  // fault-free one.
  EXPECT_GE(dyn.dropped, 0);
}

} // namespace
} // namespace hxsp
