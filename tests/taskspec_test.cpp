/// \file taskspec_test.cpp
/// The serializable task model: TaskSpec and ExperimentSpec round-trip
/// losslessly through JSON (field equality AND byte-identical
/// re-serialization), a round-tripped spec produces bit-identical
/// simulation results, manifests round-trip as a whole, and the TaskGrid
/// id/shard machinery is deterministic (shards partition the grid, their
/// union is the grid).

#include <gtest/gtest.h>

#include <algorithm>

#include "harness/grid.hpp"
#include "harness/sweep.hpp"
#include "util/jsonio.hpp"

namespace hxsp {
namespace {

ExperimentSpec small_spec() {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 2;
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.warmup = 200;
  s.measure = 400;
  s.seed = 7;
  return s;
}

/// A spec with every field moved off its default, so a codec that drops
/// or mixes up any field fails the round trip.
ExperimentSpec exotic_spec() {
  ExperimentSpec s;
  s.sides = {3, 5, 7};
  s.servers_per_switch = 9;
  s.mechanism = "omnisp@rung";
  s.pattern = "rpn";
  s.sim.packet_length = 24;
  s.sim.input_buffer_packets = 5;
  s.sim.output_buffer_packets = 3;
  s.sim.link_latency = 2;
  s.sim.xbar_latency = 3;
  s.sim.xbar_speedup = 4;
  s.sim.num_vcs = 6;
  s.sim.server_queue_packets = 11;
  s.sim.watchdog_cycles = 123456;
  s.fault_links = {1, 4, 9, 16};
  s.escape_root = 42;
  s.escape_strict_phase = false;
  s.escape_shortcuts = false;
  s.escape_penalties = {1, 2, 3, 4, 5};
  s.warmup = 777;
  s.measure = 888;
  s.seed = 0xDEADBEEFCAFEBABEull;  // exercises full u64 range
  return s;
}

// ---------------------------------------------------------------------------
// jsonio basics (the substrate both codecs stand on).
// ---------------------------------------------------------------------------

TEST(JsonIo, ParsesNestedValues) {
  const JsonValue v = JsonValue::parse(
      "{\"a\":[1,2.5,-3],\"b\":{\"c\":\"x\\\"y\\n\"},\"d\":true,"
      "\"e\":false,\"f\":null,\"g\":18446744073709551615}");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.at("a").array().size(), 3u);
  EXPECT_EQ(v.at("a").array()[0].as_i64(), 1);
  EXPECT_EQ(v.at("a").array()[1].as_double(), 2.5);
  EXPECT_EQ(v.at("a").array()[2].as_int(), -3);
  EXPECT_EQ(v.at("b").at("c").as_string(), "x\"y\n");
  EXPECT_TRUE(v.at("d").as_bool());
  EXPECT_FALSE(v.at("e").as_bool());
  EXPECT_EQ(v.at("f").kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(v.at("g").as_u64(), 18446744073709551615ull);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonIo, WriterRoundTripsThroughParser) {
  JsonWriter w;
  w.begin_object();
  w.key("s").value("quote\" back\\ newline\n");
  w.key("d").value(0.1);  // not exactly representable
  w.key("n").begin_array().value(1).value(2).end_array();
  w.key("o").begin_object().key("b").value(true).end_object();
  w.end_object();
  const JsonValue v = JsonValue::parse(w.str());
  EXPECT_EQ(v.at("s").as_string(), "quote\" back\\ newline\n");
  EXPECT_EQ(v.at("d").as_double(), 0.1);
  EXPECT_EQ(v.at("n").array().size(), 2u);
  EXPECT_TRUE(v.at("o").at("b").as_bool());
}

// ---------------------------------------------------------------------------
// ExperimentSpec codec.
// ---------------------------------------------------------------------------

TEST(SpecCodec, DefaultSpecRoundTrips) {
  const ExperimentSpec s;
  const ExperimentSpec back = spec_from_json_text(spec_to_json(s));
  EXPECT_EQ(back, s);
  EXPECT_EQ(spec_to_json(back), spec_to_json(s));  // byte-stable
}

TEST(SpecCodec, ExoticSpecRoundTrips) {
  const ExperimentSpec s = exotic_spec();
  const ExperimentSpec back = spec_from_json_text(spec_to_json(s));
  EXPECT_EQ(back, s);
  EXPECT_EQ(back.seed, 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(back.fault_links, (std::vector<LinkId>{1, 4, 9, 16}));
  EXPECT_EQ(spec_to_json(back), spec_to_json(s));
}

TEST(SpecCodec, ResolvedServersPerSwitch) {
  ExperimentSpec s = small_spec();
  EXPECT_EQ(s.resolved_servers_per_switch(), 2);
  s.servers_per_switch = -1;
  EXPECT_EQ(s.resolved_servers_per_switch(), s.sides[0]);
}

// ---------------------------------------------------------------------------
// TaskSpec codec, every kind.
// ---------------------------------------------------------------------------

TEST(TaskSpecCodec, RateTaskRoundTrips) {
  TaskSpec t = TaskSpec::rate(exotic_spec(), 0.73);
  t.id = make_task_id("fig99", 12);
  t.label = "a label, with commas";
  t.extra = "k=v;q=\"r\"";
  const TaskSpec back = TaskSpec::from_json_text(t.to_json());
  EXPECT_EQ(back, t);
  EXPECT_EQ(back.to_json(), t.to_json());
  EXPECT_EQ(back.driver(), "fig99");
}

TEST(TaskSpecCodec, CompletionTaskRoundTrips) {
  TaskSpec t = TaskSpec::completion(small_spec(), 123, 456, 789000);
  t.id = make_task_id("fig10", 1);
  const TaskSpec back = TaskSpec::from_json_text(t.to_json());
  EXPECT_EQ(back, t);
  EXPECT_EQ(back.kind, TaskKind::kCompletion);
  EXPECT_EQ(back.packets_per_server, 123);
  EXPECT_EQ(back.bucket_width, 456);
  EXPECT_EQ(back.max_cycles, 789000);
}

TEST(TaskSpecCodec, DynamicTaskRoundTrips) {
  TaskSpec t = TaskSpec::dynamic_faults(small_spec(), 0.6,
                                        {{500, 3}, {900, 17}});
  t.id = make_task_id("ext", 0);
  const TaskSpec back = TaskSpec::from_json_text(t.to_json());
  EXPECT_EQ(back, t);
  ASSERT_EQ(back.events.size(), 2u);
  EXPECT_EQ(back.events[1].at, 900);
  EXPECT_EQ(back.events[1].link, 17);
}

TEST(TaskSpecCodec, KindNamesRoundTrip) {
  for (TaskKind k :
       {TaskKind::kRate, TaskKind::kCompletion, TaskKind::kDynamic})
    EXPECT_EQ(task_kind_from_name(task_kind_name(k)), k);
}

TEST(TaskSpecCodec, ManifestRoundTrips) {
  TaskGrid grid("mixed");
  grid.add(TaskSpec::rate(small_spec(), 0.5));
  grid.add(TaskSpec::completion(small_spec(), 8, 250, 100000));
  grid.add(TaskSpec::dynamic_faults(small_spec(), 0.7, {{400, 2}}));
  const std::string manifest = grid.manifest_json();
  const std::vector<TaskSpec> back = manifest_from_json(manifest);
  ASSERT_EQ(back.size(), grid.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "task " << i);
    EXPECT_EQ(back[i], grid[i]);
  }
  EXPECT_EQ(manifest_to_json(back), manifest);
}

/// \p json with the first \p from replaced by \p to.
std::string edited(std::string json, const std::string& from,
                   const std::string& to) {
  const std::size_t at = json.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return at == std::string::npos ? json : json.replace(at, from.size(), to);
}

TEST(TaskSpecCodec, MalformedManifestFailsNamingTheKeyPath) {
  TaskSpec task = TaskSpec::rate(small_spec(), 0.5);
  task.events = {{400, 2}};
  const std::string good = manifest_to_json({task});
  ASSERT_EQ(manifest_from_json(good).size(), 1u);
  // A misspelled knob must not read as "telemetry off".
  EXPECT_DEATH(manifest_from_json(edited(good, "\"telemetry_window\"",
                                         "\"telemetry_windw\"")),
               "unknown key in JSON record: spec\\.sim\\.telemetry_windw");
  EXPECT_DEATH(manifest_from_json(edited(good, "\"label\":",
                                         "\"bogus\":1,\"label\":")),
               "unknown key in JSON record: bogus");
  EXPECT_DEATH(manifest_from_json(edited(good, "\"seed\":7",
                                         "\"seed\":7,\"seed\":8")),
               "repeated key in JSON record: spec\\.seed");
  EXPECT_DEATH(manifest_from_json(edited(good, "\"num_vcs\":4,", "")),
               "missing key in JSON record: spec\\.sim\\.num_vcs");
  EXPECT_DEATH(manifest_from_json(edited(good, "\"link\":2", "\"lnk\":2")),
               "unknown key in JSON record: events\\[0\\]\\.lnk");
  EXPECT_DEATH(manifest_from_json(edited(good, "\"num_vcs\":4",
                                         "\"num_vcs\":\"4\"")),
               "wrong JSON type for key: spec\\.sim\\.num_vcs");
}

TEST(TaskSpecCodec, IntegerThatDoesNotFitItsFieldFailsNamingTheKeyPath) {
  ExperimentSpec spec = small_spec();
  spec.fault_links = {29};
  TaskSpec task = TaskSpec::rate(spec, 0.5);
  task.events = {{400, 2}};
  const std::string good = manifest_to_json({task});
  ASSERT_EQ(manifest_from_json(good)[0].spec.fault_links[0], 29);
  // 29 + 2^32 used to narrow to link 29 and run as if it were.
  EXPECT_DEATH(manifest_from_json(edited(good, "\"fault_links\":[29]",
                                         "\"fault_links\":[4294967325]")),
               "spec\\.fault_links\\[0\\] = 4294967325 is not an integer in "
               "\\[-2147483648, 2147483647\\]");
  EXPECT_DEATH(manifest_from_json(edited(good, "\"link\":2",
                                         "\"link\":4294967298")),
               "events\\[0\\]\\.link = 4294967298 is not an integer");
  EXPECT_DEATH(manifest_from_json(edited(good, "\"at\":400",
                                         "\"at\":9223372036854775808")),
               "events\\[0\\]\\.at = 9223372036854775808 is not an integer");
  EXPECT_DEATH(manifest_from_json(edited(good, "\"seed\":7", "\"seed\":-1")),
               "spec\\.seed = -1 is not an integer in "
               "\\[0, 18446744073709551615\\]");
  EXPECT_DEATH(manifest_from_json(edited(good, "\"num_vcs\":4",
                                         "\"num_vcs\":4.5")),
               "spec\\.sim\\.num_vcs = 4\\.5 is not an integer");
  EXPECT_DEATH(manifest_from_json(edited(good, "\"num_vcs\":4",
                                         "\"num_vcs\":4e0")),
               "spec\\.sim\\.num_vcs = 4e0 is not an integer");
}

TEST(JsonIo, IntegerAccessorsRejectWhatDoesNotFit) {
  EXPECT_EQ(JsonValue::parse("-2147483648").as_int(), -2147483647 - 1);
  EXPECT_EQ(JsonValue::parse("2.5").to_i64(), std::nullopt);
  EXPECT_EQ(JsonValue::parse("9223372036854775808").to_i64(), std::nullopt);
  EXPECT_EQ(JsonValue::parse("-1").to_u64(), std::nullopt);
  EXPECT_EQ(JsonValue::parse("\"7\"").to_i64(), std::nullopt);
  EXPECT_DEATH(JsonValue::parse("2147483648").as_int(),
               "JSON value = 2147483648 is not an integer");
  EXPECT_DEATH(JsonValue::parse("1.0").as_i64(),
               "JSON value = 1\\.0 is not an integer");
}

// ---------------------------------------------------------------------------
// spec -> JSON -> spec -> identical results: the acceptance criterion.
// ---------------------------------------------------------------------------

TEST(TaskSpecCodec, RoundTrippedTaskRunsBitIdentically) {
  TaskSpec t = TaskSpec::rate(small_spec(), 0.8);
  const TaskSpec back = TaskSpec::from_json_text(t.to_json());
  const ResultRow a = std::get<ResultRow>(run_task(t));
  const ResultRow b = std::get<ResultRow>(run_task(back));
  EXPECT_EQ(a.mechanism, b.mechanism);
  EXPECT_EQ(a.pattern, b.pattern);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.jain, b.jain);
  EXPECT_EQ(a.escape_frac, b.escape_frac);
  EXPECT_EQ(a.forced_frac, b.forced_frac);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.packets, b.packets);
}

// ---------------------------------------------------------------------------
// TaskGrid ids and sharding.
// ---------------------------------------------------------------------------

TEST(TaskGrid, AssignsStableIds) {
  TaskGrid grid("fig06_random_faults");
  for (int i = 0; i < 3; ++i) grid.add(TaskSpec::rate(small_spec(), 1.0));
  EXPECT_EQ(grid[0].id, "fig06_random_faults/000000");
  EXPECT_EQ(grid[2].id, "fig06_random_faults/000002");
  EXPECT_EQ(grid[2].driver(), "fig06_random_faults");
}

TEST(TaskGrid, ShardsPartitionTheGrid) {
  TaskGrid grid("d");
  for (int i = 0; i < 11; ++i) grid.add(TaskSpec::rate(small_spec(), 0.1 * i));

  for (int count : {1, 2, 3, 5}) {
    SCOPED_TRACE(testing::Message() << "count=" << count);
    std::vector<TaskSpec> seen;
    for (int index = 0; index < count; ++index) {
      const ShardSpec shard{index, count};
      for (std::size_t i = 0; i < grid.size(); ++i)
        if (shard.covers(i)) seen.push_back(grid[i]);
    }
    // Union == grid (as a set: sort the union by id, compare).
    ASSERT_EQ(seen.size(), grid.size());
    std::sort(seen.begin(), seen.end(),
              [](const TaskSpec& a, const TaskSpec& b) { return a.id < b.id; });
    for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], grid[i]);
  }
}

TEST(TaskGrid, ShardSpecParsesAndValidates) {
  const ShardSpec s = ShardSpec::parse("2/4");
  EXPECT_EQ(s.index, 2);
  EXPECT_EQ(s.count, 4);
  EXPECT_TRUE(s.covers(2));
  EXPECT_TRUE(s.covers(6));
  EXPECT_FALSE(s.covers(3));
  const ShardSpec whole = ShardSpec::parse("0/1");
  for (std::size_t i = 0; i < 5; ++i) EXPECT_TRUE(whole.covers(i));
}

TEST(TaskGrid, ShardSpecRejectsMalformedInput) {
  // Trailing garbage must abort, not silently run the wrong slice of a
  // multi-host sweep.
  EXPECT_DEATH(ShardSpec::parse("1x/2"), "--shard");
  EXPECT_DEATH(ShardSpec::parse("1/2,"), "--shard");
  EXPECT_DEATH(ShardSpec::parse("2/2"), "out of range");
  EXPECT_DEATH(ShardSpec::parse("nonsense"), "--shard");
}

} // namespace
} // namespace hxsp
