/// \file pinned_results_test.cpp
/// Absolute results: one small faulted 4x4 task per kind, plus rate rows
/// for Minimal and Valiant, one of them on the computed distance provider.
/// Every other harness test compares the engine with itself (serial vs
/// parallel, fresh vs reused, driver vs runner), so a swapped stream tag or a
/// reordered call in the run loop would pass them all; these rows would
/// not. The expected lines are recorded output: a change that keeps
/// results may not alter them, and a deliberate re-seed re-records them in
/// the same change.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "hot_links.hpp"
#include "metrics/resultsink.hpp"
#include "telemetry/capture.hpp"
#include "topology/computed_distance.hpp"

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

/// \p t with every field moved off its default (only a rate task keeps its
/// default kind), so a dropped, renamed or reordered key changes the
/// pinned manifest below.
TaskSpec with_every_field_set(TaskSpec t) {
  ExperimentSpec& s = t.spec;
  s.sides = {4, 3, 2};
  s.servers_per_switch = 3;
  s.mechanism = "omnisp";
  s.pattern = "hotspot";
  s.traffic_params.hotspot_fraction = 0.25;
  s.traffic_params.hotspot_count = 3;
  s.sim.packet_length = 8;
  s.sim.input_buffer_packets = 6;
  s.sim.output_buffer_packets = 3;
  s.sim.link_latency = 2;
  s.sim.xbar_latency = 3;
  s.sim.xbar_speedup = 4;
  s.sim.num_vcs = 5;
  s.sim.server_queue_packets = 7;
  s.sim.watchdog_cycles = 12345;
  s.sim.audit_interval = 256;
  s.sim.telemetry_window = 64;
  s.sim.trace_sample = 3;
  s.sim.flight_recorder = 32;
  s.fault_links = {2, 9};
  s.escape_root = 5;
  s.escape_strict_phase = false;
  s.escape_shortcuts = false;
  s.escape_penalties = {101, 91, 71, 61, 41};
  s.warmup = 111;
  s.measure = 222;
  s.seed = 0xFEEDFACECAFEBEEFull;  // above INT64_MAX: pins unsigned output
  t.offered = 0.3;
  t.packets_per_server = 17;
  t.bucket_width = 250;
  t.max_cycles = 9999;
  t.events = {{400, 5}, {700, 20}};
  t.workload_params = {"random", 3, 2, 5, "w.jsonl"};
  JobSpec first{{"alltoall", 5, 3, 4, "a.jsonl"}, 16, 7, 900};
  JobSpec second{{"shuffle", 6, 4, 3, "b.jsonl"}, 8, 60, 1200};
  t.multitenant_params = {"random", false, {first, second}};
  t.label = "lbl \"q\", x";
  t.extra = "k=v;n=2";
  return t;
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

TEST(PinnedResults, MinimalAndValiantReproduceTheirRecordedRows) {
  // The rows above route with PolSP; these pin the table-minimal next hops
  // of Minimal and both Valiant phases on the faulted 4x4 (dense distance
  // table), and Minimal on a faulted 17x16x16, which is above
  // kDenseDistanceSwitchLimit and so routes on the computed provider.
  ExperimentSpec minimal = pinned_spec();
  minimal.mechanism = "minimal";
  ExperimentSpec valiant = pinned_spec();
  valiant.mechanism = "valiant";
  ExperimentSpec large = pinned_spec();
  large.sides = {17, 16, 16};
  large.servers_per_switch = 1;
  large.mechanism = "minimal";
  ASSERT_GT(17 * 16 * 16, kDenseDistanceSwitchLimit);
  large.fault_links.clear();  // 65 faults spread over its 100,096 links
  for (LinkId l = 0; l < 100096; l += 1543) large.fault_links.push_back(l);
  large.warmup = 100;
  large.measure = 200;
  const std::vector<std::pair<TaskSpec, std::string>> pins = {
      {TaskSpec::rate(minimal, 0.8),
       "pinned,pinned/000000,rate,,Minimal,uniform,0.80000000000000004,7,"
       "0.81166666666666665,0.79749999999999999,87.241379310344826,"
       "0.96825805081977923,0,0,208,600,957,0,0,0,0,0,,\n"},
      {TaskSpec::rate(valiant, 0.4),
       "pinned,pinned/000001,rate,,Valiant,uniform,0.40000000000000002,7,"
       "0.41499999999999998,0.41833333333333333,46.693227091633467,"
       "0.9493048750612445,0,0,128,600,502,0,0,0,0,0,,\n"},
      {TaskSpec::rate(large, 0.3),
       "pinned,pinned/000002,rate,,Minimal,uniform,0.29999999999999999,7,"
       "0.29952205882352939,0.29700367647058823,30.22968372841493,"
       "0.78499569358008026,0,0,72,200,16157,0,0,0,0,0,,\n"},
  };
  for (std::size_t i = 0; i < pins.size(); ++i) {
    TaskSpec task = pins[i].first;
    task.id = make_task_id("pinned", i);
    SCOPED_TRACE(task.id);
    const std::vector<ResultRecord> rows = make_records(task, run_task(task));
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(ResultSink::csv_line(rows[0]), pins[i].second);
  }
}

TEST(PinnedResults, HotspotsReproduceTheirRecordedLinks) {
  const auto [row, hot] = testutil::run_load_hot_links(pinned_spec(), 0.8, 4);
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

/// 64-bit FNV-1a of \p text: a short, stable pin for long artefacts.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(PinnedResults, TelemetryAndTraceBytesAreRecorded) {
  // The telemetry tests compare captures with each other (thread counts,
  // on vs off); these pins hold the absolute bytes of the telemetry CSV
  // and the trace JSONL, plus the rows of the four instrument quantities
  // (consumption, latency, hop kinds, link phits).
  struct Pin {
    std::size_t task;  ///< index into pinned_tasks()
    std::uint64_t csv_fnv;
    std::uint64_t jsonl_fnv;
    std::vector<std::string> rows;  ///< consumed_phits, p99_latency,
                                    ///< hops_escape, link_max_phits
  };
  const std::vector<Pin> pins = {
      {0,
       0x73e9401fd45894edull,
       0xdb41c8e1ee7e6f9aull,
       {"pinned,pinned/000000,telemetry,consumed_phits,polsp,uniform,"
        "0.80000000000000004,7,0,0,0,0,0,0,0,900,0,32,0,0,0,64,736|1312|"
        "1456|1552|1584|1632|1664|1680|1568|1600|1696|1568|1664|1616|96,"
        "axis=window\n",
        "pinned,pinned/000000,telemetry,p99_latency,polsp,uniform,"
        "0.80000000000000004,7,0,0,0,0,0,0,0,900,0,32,0,0,0,64,56|104|"
        "120|184|160|184|232|224|192|264|160|192|192|184|160,"
        "axis=window\n",
        "pinned,pinned/000000,telemetry,hops_escape,polsp,uniform,"
        "0.80000000000000004,7,0,0,0,0,0,0,0,900,0,32,0,0,0,64,8|14|16|"
        "12|17|22|10|15|12|6|14|14|9|14|0,axis=window\n",
        "pinned,pinned/000000,telemetry,link_max_phits,polsp,uniform,"
        "0.80000000000000004,7,0,0,0,0,0,0,0,900,0,32,0,0,0,64,48|64|64|"
        "64|64|64|64|64|64|64|64|64|64|64|16,axis=window\n"}},
      {3,
       0xa44a3cf345818763ull,
       0x0aa3938f0f25d5f6ull,
       {"pinned,pinned/000003,telemetry,consumed_phits,polsp,uniform,1,7,"
        "0,0,0,0,0,0,0,2426,0,32,0,0,0,64,1504|1648|1712|1712|1744|1760|"
        "1744|1632|1696|1696|1744|1648|1744|1728|1648|1776|1776|1760|"
        "1728|1792|1712|1632|1664|1776|1744|1696|1680|1760|1632|1696|"
        "1728|1664|1680|1680|1584|1648|1744|576,axis=window\n",
        "pinned,pinned/000003,telemetry,p99_latency,polsp,uniform,1,7,0,"
        "0,0,0,0,0,0,2426,0,32,0,0,0,64,56|56|56|56|56|48|56|56|56|56|56|"
        "56|56|64|64|56|56|48|48|56|56|56|64|64|56|56|56|56|56|56|56|56|"
        "56|56|80|64|56|56,axis=window\n",
        "pinned,pinned/000003,telemetry,hops_escape,polsp,uniform,1,7,0,"
        "0,0,0,0,0,0,2426,0,32,0,0,0,64,3|4|5|4|2|5|4|6|6|1|8|5|8|2|3|4|"
        "4|0|2|3|6|4|4|2|1|4|0|5|2|2|6|9|4|3|6|6|3|0,axis=window\n",
        "pinned,pinned/000003,telemetry,link_max_phits,polsp,uniform,1,7,"
        "0,0,0,0,0,0,0,2426,0,32,0,0,0,64,64|64|48|64|64|64|64|64|64|64|"
        "64|64|64|64|48|64|64|64|64|64|48|64|64|64|64|64|64|64|64|64|64|"
        "64|64|64|64|64|64|32,axis=window\n"}},
  };
  const std::vector<TaskSpec> tasks = pinned_tasks();
  for (const Pin& pin : pins) {
    TaskSpec task = tasks[pin.task];
    task.spec.sim.telemetry_window = 64;
    task.spec.sim.trace_sample = 3;
    SCOPED_TRACE(task.id);
    TelemetryCapture cap;
    run_task(task, 0, &cap);
    const std::vector<ResultRecord> rows = make_telemetry_records(task, cap);
    const std::string csv = ResultSink::csv(rows);
    const std::string jsonl = trace_jsonl({{task.id, &cap.hops}});
    std::vector<std::string> picked;
    for (const ResultRecord& rec : rows)
      if (rec.label == "consumed_phits" || rec.label == "p99_latency" ||
          rec.label == "hops_escape" || rec.label == "link_max_phits")
        picked.push_back(ResultSink::csv_line(rec));
    EXPECT_EQ(fnv1a(csv), pin.csv_fnv);
    EXPECT_EQ(fnv1a(jsonl), pin.jsonl_fnv);
    EXPECT_EQ(picked, pin.rows);
  }
}

TEST(PinnedResults, ManifestWithEveryFieldSetIsRecorded) {
  std::vector<TaskSpec> tasks = pinned_tasks();
  for (TaskSpec& t : tasks) t = with_every_field_set(t);
  const std::string expected =
      "[{\"id\":\"pinned/000000\",\"kind\":\"rate\",\"label\":\"lbl \\\"q\\\","
      " x\",\"extra\":\"k=v;n=2\",\"offered\":0.29999999999999999,"
      "\"packets_per_server\":17,\"bucket_width\":250,\"max_cycles\":9999,"
      "\"events\":[{\"at\":400,\"link\":5},{\"at\":700,\"link\":20}],"
      "\"workload\":{\"name\":\"random\",\"msg_packets\":3,\"rounds\":2,"
      "\"fanout\":5,\"trace\":\"w.jsonl\"},"
      "\"multitenant\":{\"placement\":\"random\",\"isolated_baseline\":false,"
      "\"jobs\":[{\"demand\":16,\"arrival\":7,\"deadline\":900,"
      "\"workload\":{\"name\":\"alltoall\",\"msg_packets\":5,\"rounds\":3,"
      "\"fanout\":4,\"trace\":\"a.jsonl\"}},{\"demand\":8,\"arrival\":60,"
      "\"deadline\":1200,\"workload\":{\"name\":\"shuffle\",\"msg_packets\":6,"
      "\"rounds\":4,\"fanout\":3,\"trace\":\"b.jsonl\"}}]},"
      "\"spec\":{\"sides\":[4,3,2],\"servers_per_switch\":3,"
      "\"mechanism\":\"omnisp\",\"pattern\":\"hotspot\","
      "\"traffic_params\":{\"hotspot_fraction\":0.25,\"hotspot_count\":3},"
      "\"sim\":{\"packet_length\":8,\"input_buffer_packets\":6,"
      "\"output_buffer_packets\":3,\"link_latency\":2,\"xbar_latency\":3,"
      "\"xbar_speedup\":4,\"num_vcs\":5,\"server_queue_packets\":7,"
      "\"watchdog_cycles\":12345,\"audit_interval\":256,"
      "\"telemetry_window\":64,\"trace_sample\":3,\"flight_recorder\":32},"
      "\"fault_links\":[2,9],\"escape_root\":5,\"escape_strict_phase\":false,"
      "\"escape_shortcuts\":false,\"escape_penalties\":{\"up\":101,\"down\":91,"
      "\"red1\":71,\"red2\":61,\"red3\":41},\"warmup\":111,\"measure\":222,"
      "\"seed\":18369614221190020847}},{\"id\":\"pinned/000001\","
      "\"kind\":\"completion\",\"label\":\"lbl \\\"q\\\", x\","
      "\"extra\":\"k=v;n=2\",\"offered\":0.29999999999999999,"
      "\"packets_per_server\":17,\"bucket_width\":250,\"max_cycles\":9999,"
      "\"events\":[{\"at\":400,\"link\":5},{\"at\":700,\"link\":20}],"
      "\"workload\":{\"name\":\"random\",\"msg_packets\":3,\"rounds\":2,"
      "\"fanout\":5,\"trace\":\"w.jsonl\"},"
      "\"multitenant\":{\"placement\":\"random\",\"isolated_baseline\":false,"
      "\"jobs\":[{\"demand\":16,\"arrival\":7,\"deadline\":900,"
      "\"workload\":{\"name\":\"alltoall\",\"msg_packets\":5,\"rounds\":3,"
      "\"fanout\":4,\"trace\":\"a.jsonl\"}},{\"demand\":8,\"arrival\":60,"
      "\"deadline\":1200,\"workload\":{\"name\":\"shuffle\",\"msg_packets\":6,"
      "\"rounds\":4,\"fanout\":3,\"trace\":\"b.jsonl\"}}]},"
      "\"spec\":{\"sides\":[4,3,2],\"servers_per_switch\":3,"
      "\"mechanism\":\"omnisp\",\"pattern\":\"hotspot\","
      "\"traffic_params\":{\"hotspot_fraction\":0.25,\"hotspot_count\":3},"
      "\"sim\":{\"packet_length\":8,\"input_buffer_packets\":6,"
      "\"output_buffer_packets\":3,\"link_latency\":2,\"xbar_latency\":3,"
      "\"xbar_speedup\":4,\"num_vcs\":5,\"server_queue_packets\":7,"
      "\"watchdog_cycles\":12345,\"audit_interval\":256,"
      "\"telemetry_window\":64,\"trace_sample\":3,\"flight_recorder\":32},"
      "\"fault_links\":[2,9],\"escape_root\":5,\"escape_strict_phase\":false,"
      "\"escape_shortcuts\":false,\"escape_penalties\":{\"up\":101,\"down\":91,"
      "\"red1\":71,\"red2\":61,\"red3\":41},\"warmup\":111,\"measure\":222,"
      "\"seed\":18369614221190020847}},{\"id\":\"pinned/000002\","
      "\"kind\":\"dynamic\",\"label\":\"lbl \\\"q\\\", x\","
      "\"extra\":\"k=v;n=2\",\"offered\":0.29999999999999999,"
      "\"packets_per_server\":17,\"bucket_width\":250,\"max_cycles\":9999,"
      "\"events\":[{\"at\":400,\"link\":5},{\"at\":700,\"link\":20}],"
      "\"workload\":{\"name\":\"random\",\"msg_packets\":3,\"rounds\":2,"
      "\"fanout\":5,\"trace\":\"w.jsonl\"},"
      "\"multitenant\":{\"placement\":\"random\",\"isolated_baseline\":false,"
      "\"jobs\":[{\"demand\":16,\"arrival\":7,\"deadline\":900,"
      "\"workload\":{\"name\":\"alltoall\",\"msg_packets\":5,\"rounds\":3,"
      "\"fanout\":4,\"trace\":\"a.jsonl\"}},{\"demand\":8,\"arrival\":60,"
      "\"deadline\":1200,\"workload\":{\"name\":\"shuffle\",\"msg_packets\":6,"
      "\"rounds\":4,\"fanout\":3,\"trace\":\"b.jsonl\"}}]},"
      "\"spec\":{\"sides\":[4,3,2],\"servers_per_switch\":3,"
      "\"mechanism\":\"omnisp\",\"pattern\":\"hotspot\","
      "\"traffic_params\":{\"hotspot_fraction\":0.25,\"hotspot_count\":3},"
      "\"sim\":{\"packet_length\":8,\"input_buffer_packets\":6,"
      "\"output_buffer_packets\":3,\"link_latency\":2,\"xbar_latency\":3,"
      "\"xbar_speedup\":4,\"num_vcs\":5,\"server_queue_packets\":7,"
      "\"watchdog_cycles\":12345,\"audit_interval\":256,"
      "\"telemetry_window\":64,\"trace_sample\":3,\"flight_recorder\":32},"
      "\"fault_links\":[2,9],\"escape_root\":5,\"escape_strict_phase\":false,"
      "\"escape_shortcuts\":false,\"escape_penalties\":{\"up\":101,\"down\":91,"
      "\"red1\":71,\"red2\":61,\"red3\":41},\"warmup\":111,\"measure\":222,"
      "\"seed\":18369614221190020847}},{\"id\":\"pinned/000003\","
      "\"kind\":\"workload\",\"label\":\"lbl \\\"q\\\", x\","
      "\"extra\":\"k=v;n=2\",\"offered\":0.29999999999999999,"
      "\"packets_per_server\":17,\"bucket_width\":250,\"max_cycles\":9999,"
      "\"events\":[{\"at\":400,\"link\":5},{\"at\":700,\"link\":20}],"
      "\"workload\":{\"name\":\"random\",\"msg_packets\":3,\"rounds\":2,"
      "\"fanout\":5,\"trace\":\"w.jsonl\"},"
      "\"multitenant\":{\"placement\":\"random\",\"isolated_baseline\":false,"
      "\"jobs\":[{\"demand\":16,\"arrival\":7,\"deadline\":900,"
      "\"workload\":{\"name\":\"alltoall\",\"msg_packets\":5,\"rounds\":3,"
      "\"fanout\":4,\"trace\":\"a.jsonl\"}},{\"demand\":8,\"arrival\":60,"
      "\"deadline\":1200,\"workload\":{\"name\":\"shuffle\",\"msg_packets\":6,"
      "\"rounds\":4,\"fanout\":3,\"trace\":\"b.jsonl\"}}]},"
      "\"spec\":{\"sides\":[4,3,2],\"servers_per_switch\":3,"
      "\"mechanism\":\"omnisp\",\"pattern\":\"hotspot\","
      "\"traffic_params\":{\"hotspot_fraction\":0.25,\"hotspot_count\":3},"
      "\"sim\":{\"packet_length\":8,\"input_buffer_packets\":6,"
      "\"output_buffer_packets\":3,\"link_latency\":2,\"xbar_latency\":3,"
      "\"xbar_speedup\":4,\"num_vcs\":5,\"server_queue_packets\":7,"
      "\"watchdog_cycles\":12345,\"audit_interval\":256,"
      "\"telemetry_window\":64,\"trace_sample\":3,\"flight_recorder\":32},"
      "\"fault_links\":[2,9],\"escape_root\":5,\"escape_strict_phase\":false,"
      "\"escape_shortcuts\":false,\"escape_penalties\":{\"up\":101,\"down\":91,"
      "\"red1\":71,\"red2\":61,\"red3\":41},\"warmup\":111,\"measure\":222,"
      "\"seed\":18369614221190020847}},{\"id\":\"pinned/000004\","
      "\"kind\":\"multitenant\",\"label\":\"lbl \\\"q\\\", x\","
      "\"extra\":\"k=v;n=2\",\"offered\":0.29999999999999999,"
      "\"packets_per_server\":17,\"bucket_width\":250,\"max_cycles\":9999,"
      "\"events\":[{\"at\":400,\"link\":5},{\"at\":700,\"link\":20}],"
      "\"workload\":{\"name\":\"random\",\"msg_packets\":3,\"rounds\":2,"
      "\"fanout\":5,\"trace\":\"w.jsonl\"},"
      "\"multitenant\":{\"placement\":\"random\",\"isolated_baseline\":false,"
      "\"jobs\":[{\"demand\":16,\"arrival\":7,\"deadline\":900,"
      "\"workload\":{\"name\":\"alltoall\",\"msg_packets\":5,\"rounds\":3,"
      "\"fanout\":4,\"trace\":\"a.jsonl\"}},{\"demand\":8,\"arrival\":60,"
      "\"deadline\":1200,\"workload\":{\"name\":\"shuffle\",\"msg_packets\":6,"
      "\"rounds\":4,\"fanout\":3,\"trace\":\"b.jsonl\"}}]},"
      "\"spec\":{\"sides\":[4,3,2],\"servers_per_switch\":3,"
      "\"mechanism\":\"omnisp\",\"pattern\":\"hotspot\","
      "\"traffic_params\":{\"hotspot_fraction\":0.25,\"hotspot_count\":3},"
      "\"sim\":{\"packet_length\":8,\"input_buffer_packets\":6,"
      "\"output_buffer_packets\":3,\"link_latency\":2,\"xbar_latency\":3,"
      "\"xbar_speedup\":4,\"num_vcs\":5,\"server_queue_packets\":7,"
      "\"watchdog_cycles\":12345,\"audit_interval\":256,"
      "\"telemetry_window\":64,\"trace_sample\":3,\"flight_recorder\":32},"
      "\"fault_links\":[2,9],\"escape_root\":5,\"escape_strict_phase\":false,"
      "\"escape_shortcuts\":false,\"escape_penalties\":{\"up\":101,\"down\":91,"
      "\"red1\":71,\"red2\":61,\"red3\":41},\"warmup\":111,\"measure\":222,"
      "\"seed\":18369614221190020847}}]\n";
  const std::string manifest = manifest_to_json(tasks);
  EXPECT_EQ(manifest, expected);
  EXPECT_EQ(manifest_from_json(manifest), tasks);
}

TEST(PinnedResults, ManifestWithoutLaterKeysReadsThemAsOff) {
  // The rate task as manifests wrote it before the auditor, telemetry and
  // the multitenant kind: no audit_interval, telemetry_window,
  // trace_sample, flight_recorder or multitenant key.
  const std::string old =
      "[{\"id\":\"pinned/000000\",\"kind\":\"rate\",\"label\":\"\","
      "\"extra\":\"\",\"offered\":0.80000000000000004,\"packets_per_server\":0,"
      "\"bucket_width\":1000,\"max_cycles\":0,\"events\":[],"
      "\"workload\":{\"name\":\"alltoall\",\"msg_packets\":4,\"rounds\":1,"
      "\"fanout\":2,\"trace\":\"\"},\"spec\":{\"sides\":[4,4],"
      "\"servers_per_switch\":2,\"mechanism\":\"polsp\","
      "\"pattern\":\"uniform\","
      "\"traffic_params\":{\"hotspot_fraction\":0.10000000000000001,"
      "\"hotspot_count\":1},\"sim\":{\"packet_length\":16,"
      "\"input_buffer_packets\":8,\"output_buffer_packets\":4,"
      "\"link_latency\":1,\"xbar_latency\":1,\"xbar_speedup\":2,\"num_vcs\":4,"
      "\"server_queue_packets\":8,\"watchdog_cycles\":50000},"
      "\"fault_links\":[0,3,11],\"escape_root\":0,\"escape_strict_phase\":true,"
      "\"escape_shortcuts\":true,\"escape_penalties\":{\"up\":112,\"down\":96,"
      "\"red1\":80,\"red2\":64,\"red3\":48},\"warmup\":300,\"measure\":600,"
      "\"seed\":7}}]\n";
  const std::vector<TaskSpec> tasks = manifest_from_json(old);
  ASSERT_EQ(tasks.size(), 1u);
  const TaskSpec& t = tasks[0];
  // Absent means off, whatever the build default (HXSP_AUDIT builds
  // default audit_interval to 1024).
  EXPECT_EQ(t.spec.sim.audit_interval, 0);
  EXPECT_EQ(t.spec.sim.telemetry_window, 0);
  EXPECT_EQ(t.spec.sim.trace_sample, 0);
  EXPECT_EQ(t.spec.sim.flight_recorder, 0);
  EXPECT_EQ(t.multitenant_params, MultitenantParams{});
  TaskSpec expected = pinned_tasks()[0];
  expected.spec.sim.audit_interval = 0;
  EXPECT_EQ(t, expected);
}

} // namespace
} // namespace hxsp
