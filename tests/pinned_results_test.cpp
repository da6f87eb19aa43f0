/// \file pinned_results_test.cpp
/// Absolute results, one small faulted 4x4 task per kind. Every other
/// harness test compares the engine with itself (serial vs parallel,
/// fresh vs reused, CSV vs JSON), so a swapped stream tag or a reordered
/// call in the run loop would pass them all; these rows would not. The
/// expected lines are recorded output: a change that keeps results may
/// not alter them, and a deliberate re-seed re-records them in the same
/// change.

#include <gtest/gtest.h>

#include <cstdio>

#include "metrics/resultsink.hpp"

namespace hxsp {
namespace {

ExperimentSpec pinned_spec() {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 2;
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.fault_links = {0, 3, 11};
  s.warmup = 300;
  s.measure = 600;
  s.seed = 7;
  return s;
}

JobSpec pinned_job(const char* workload, ServerId demand, Cycle arrival) {
  JobSpec j;
  j.workload.name = workload;
  j.workload.msg_packets = 2;
  j.demand = demand;
  j.arrival = arrival;
  return j;
}

/// One task of every kind; ids carry the kind's position.
std::vector<TaskSpec> pinned_tasks() {
  const ExperimentSpec spec = pinned_spec();
  std::vector<TaskSpec> tasks;
  tasks.push_back(TaskSpec::rate(spec, 0.8));
  tasks.push_back(TaskSpec::completion(spec, 20, 200, 200000));
  tasks.push_back(
      TaskSpec::dynamic_faults(spec, 0.6, {{400, 5}, {700, 20}}));
  WorkloadParams wl;
  wl.name = "ring_allreduce";
  wl.msg_packets = 2;
  tasks.push_back(TaskSpec::workload(spec, wl, 500, 200000));
  MultitenantParams mt;
  mt.placement = "random";  // draws from the placement stream
  mt.isolated_baseline = true;
  mt.jobs = {pinned_job("alltoall", 16, 0),
             pinned_job("ring_allreduce", 8, 50),
             pinned_job("shuffle", 12, 100)};
  tasks.push_back(TaskSpec::multitenant(spec, mt, 500, 200000));
  for (std::size_t i = 0; i < tasks.size(); ++i)
    tasks[i].id = make_task_id("pinned", i);
  return tasks;
}

TEST(PinnedResults, EveryKindReproducesItsRecordedRows) {
  const std::vector<std::vector<std::string>> expected = {
      {"pinned,pinned/000000,rate,,PolSP,uniform,0.80000000000000004,7,"
       "0.80500000000000005,0.79666666666666663,77.10251046025104,"
       "0.97003276561772334,0.064955474070193822,0,200,600,956,0,0,0,0,0,,"
       "\n"},
      {"pinned,pinned/000001,completion,,PolSP,uniform,0,7,0,0,0,0,0,0,0,0,"
       "0,32,0,1,457,200,4928|4976|336,\n"},
      {"pinned,pinned/000002,dynamic,,PolSP,uniform,0.59999999999999998,7,"
       "0.56499999999999995,0.57583333333333331,42.726483357452963,"
       "0.95665456846030905,0.040832049306625574,0,120,600,691,32,0,0,0,500,"
       "8704|7408,\n"},
      {"pinned,pinned/000003,workload,,PolSP,ring_allreduce,0,7,0,0,"
       "38.33064516129032,0,0,0,56,0,3968,32,0,1,2426,500,"
       "13168|13328|13456|13328|10208,messages=1984;p50_msg=36;phase_cycles="
       "52|86|128|172|206|242|282|316|352|418|452|500|550|596|630|666|700|"
       "744|778|816|850|890|924|972|1006|1052|1086|1124|1158|1196|1230|1266|"
       "1300|1351|1385|1423|1457|1498|1532|1570|1604|1640|1684|1718|1786|"
       "1820|1858|1892|1930|1964|2002|2036|2074|2114|2148|2190|2224|2270|"
       "2304|2355|2389|2425\n"},
      {"pinned,pinned/000004,tenant,,PolSP,alltoall,0,7,0,0,"
       "47.487499999999997,0,0,0,73,801,480,16,0,1,801,0,,placement=random;"
       "job=0;demand=16;arrival=0;admitted=0;queue_wait=0;span=801;"
       "isolated=733;slowdown=1.0927694406548432;p50_msg=44;messages=240;"
       "deadline=none\n",
       "pinned,pinned/000004,tenant,,PolSP,ring_allreduce,0,7,0,0,"
       "41.053571428571431,0,0,0,57,583,224,8,0,1,633,0,,placement=random;"
       "job=1;demand=8;arrival=50;admitted=50;queue_wait=0;span=583;"
       "isolated=559;slowdown=1.0429338103756709;p50_msg=38;messages=112;"
       "deadline=none\n",
       "pinned,pinned/000004,tenant,,PolSP,shuffle,0,7,0,0,"
       "39.727272727272727,0,0,0,51,53,22,12,0,1,685,0,,placement=random;"
       "job=2;demand=12;arrival=100;admitted=632;queue_wait=532;span=53;"
       "isolated=41;slowdown=1.2926829268292683;p50_msg=38;messages=11;"
       "deadline=none\n",
       "pinned,pinned/000004,multitenant,,PolSP,random,0,7,0,0,0,0,0,0,0,0,"
       "726,32,0,1,801,500,8144|3472,placement=random;jobs=3\n"},
  };
  const std::vector<TaskSpec> tasks = pinned_tasks();
  ASSERT_EQ(tasks.size(), expected.size());
  // A step pool changes no byte, so it must reproduce the same rows.
  for (int step_threads : {0, 2}) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      SCOPED_TRACE(testing::Message() << tasks[i].id << " step_threads="
                                      << step_threads);
      const std::vector<ResultRecord> rows =
          make_records(tasks[i], run_task(tasks[i], step_threads));
      ASSERT_EQ(rows.size(), expected[i].size());
      for (std::size_t r = 0; r < rows.size(); ++r)
        EXPECT_EQ(ResultSink::csv_line(rows[r]), expected[i][r])
            << "row " << r;
    }
  }
}

TEST(PinnedResults, HotspotsReproduceTheirRecordedLinks) {
  Experiment e(pinned_spec());
  const auto [row, hot] = e.run_load_hotspots(0.8, 4);
  EXPECT_EQ(row.packets, 956);  // the same run as the pinned rate row
  const std::vector<std::string> expected = {
      "15:1->13 0.77333333333333332", "15:0->12 0.77333333333333332",
      "4:0->5 0.7466666666666667", "9:0->8 0.71999999999999997"};
  ASSERT_EQ(hot.size(), expected.size());
  for (std::size_t i = 0; i < hot.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%d:%d->%d %.17g", hot[i].from,
                  hot[i].port, hot[i].to, hot[i].load);
    EXPECT_EQ(buf, expected[i]) << "entry " << i;
  }
}

} // namespace
} // namespace hxsp
