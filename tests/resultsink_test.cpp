/// \file resultsink_test.cpp
/// The shared persistence schema: every driver emits the same column set,
/// CSV round-trips losslessly (including quoting/escaping of hostile
/// names and empty time series), the typed task/result add() maps every
/// kind's fields onto the right columns, and merge restores grid order
/// and refuses duplicated tasks.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "metrics/resultsink.hpp"

namespace hxsp {
namespace {

ResultRecord sample_rate_record() {
  ResultRecord r;
  r.kind = "rate";
  r.task_id = "test_driver/000003";
  r.label = "fault-free";
  r.mechanism = "PolSP";
  r.pattern = "uniform";
  r.offered = 0.9;
  r.seed = 7;
  r.generated = 0.81234567890123456;
  r.accepted = 0.79999999999999993;  // not representable exactly: must
                                     // survive the round trip bit-exactly
  r.avg_latency = 31.25;
  r.jain = 0.998;
  r.escape_frac = 0.0125;
  r.forced_frac = 0.0001;
  r.p99_latency = 211;
  r.cycles = 600;
  r.packets = 12345;
  r.extra = "scale=1.00";
  return r;
}

ResultRecord sample_completion_record() {
  ResultRecord r;
  r.kind = "completion";
  r.mechanism = "OmniSP";
  r.pattern = "rpn";
  r.seed = 1;
  r.num_servers = 256;
  r.drained = true;
  r.completion_time = 48213;
  r.series_width = 2000;
  r.series = {55952, 6720, 1424, 0, 352};
  return r;
}

ResultRecord sample_dynamic_record() {
  ResultRecord r;
  r.kind = "dynamic";
  r.mechanism = "PolSP";
  r.pattern = "uniform";
  r.offered = 0.7;
  r.seed = 11;
  r.accepted = 0.68;
  r.num_servers = 64;
  r.dropped = 17;
  r.series_width = 500;
  r.series = {100, 90, 95};
  r.extra = "faults=6";
  return r;
}

ResultRecord sample_graph_record() {
  ResultRecord r;
  r.kind = "graph";
  r.label = "3D HyperX 8x8x8";
  r.extra = "switches=512;diameter=3";
  return r;
}

ResultSink sink_with_all_kinds() {
  ResultSink sink("test_driver");
  sink.add(sample_rate_record());
  sink.add(sample_completion_record());
  sink.add(sample_dynamic_record());
  sink.add(sample_graph_record());
  return sink;
}

TEST(ResultSink, ColumnSetIsStable) {
  const std::vector<std::string> expected = {
      "driver",      "task_id",     "kind",        "label",
      "mechanism",   "pattern",     "offered",     "seed",
      "generated",   "accepted",    "avg_latency", "jain",
      "escape_frac", "forced_frac", "p99_latency", "cycles",
      "packets",     "num_servers", "dropped",     "drained",
      "completion_time", "series_width", "series", "extra"};
  EXPECT_EQ(ResultSink::columns(), expected);
}

TEST(ResultSink, DriverNameIsAuthoritative) {
  ResultSink sink("real_driver");
  ResultRecord rec;
  rec.driver = "imposter";
  sink.add(std::move(rec));
  EXPECT_EQ(sink.records()[0].driver, "real_driver");
}

TEST(ResultSink, CsvRoundTripsAllKinds) {
  const ResultSink sink = sink_with_all_kinds();
  const auto parsed = ResultSink::parse_csv(sink.csv());
  ASSERT_EQ(parsed.size(), sink.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "record " << i);
    EXPECT_EQ(parsed[i], sink.records()[i]);
  }
}

TEST(ResultSink, HostileStringsSurviveCsv) {
  ResultSink sink("quoting, \"driver\"");
  ResultRecord rec;
  rec.kind = "rate";
  rec.mechanism = "Mech,With\"Quotes\" and,commas";
  rec.pattern = "line\nbreak\tand\ttabs";
  rec.label = "semi;colons;and |pipes|";
  rec.extra = "note=contains, comma;quote=\"q\";backslash=\\";
  sink.add(std::move(rec));

  const auto from_csv = ResultSink::parse_csv(sink.csv());
  ASSERT_EQ(from_csv.size(), 1u);
  EXPECT_EQ(from_csv[0], sink.records()[0]);
}

TEST(ResultSink, EmptySeriesAndEmptySinkRoundTrip) {
  ResultSink empty("empty_driver");
  EXPECT_EQ(ResultSink::parse_csv(empty.csv()).size(), 0u);

  // A record whose series is empty must not come back as {0} or similar.
  ResultSink sink("d");
  sink.add(sample_rate_record());  // no series
  const auto csv = ResultSink::parse_csv(sink.csv());
  ASSERT_EQ(csv.size(), 1u);
  EXPECT_TRUE(csv[0].series.empty());
}

TEST(ResultSink, SharedSchemaAcrossKindsAndDrivers) {
  // Whatever mix of kinds a driver emits, the CSV header line and the
  // per-row field count are identical — the cross-driver contract the
  // plotting pipeline depends on.
  const ResultSink a = sink_with_all_kinds();
  ResultSink b("another_driver");
  b.add(sample_completion_record());
  const std::string header_a = a.csv().substr(0, a.csv().find('\n'));
  const std::string header_b = b.csv().substr(0, b.csv().find('\n'));
  EXPECT_EQ(header_a, header_b);

  // Parsing one driver's rows with the shared parser yields records that
  // re-serialize identically (schema has no driver-specific columns).
  for (const ResultSink* s : std::initializer_list<const ResultSink*>{&a, &b}) {
    const auto parsed = ResultSink::parse_csv(s->csv());
    ResultSink echo(s->driver());
    for (const auto& rec : parsed) echo.add(rec);
    EXPECT_EQ(echo.csv(), s->csv());
  }
}

// ---------------------------------------------------------------------------
// Typed add(): mapping of each TaskResult alternative onto the schema.
// No simulation needed — results are constructed by hand.
// ---------------------------------------------------------------------------

TaskSpec task_with_seed(TaskKind kind, std::uint64_t seed,
                        std::string label = "", std::string extra = "") {
  TaskSpec t;
  t.kind = kind;
  t.spec.seed = seed;
  t.id = make_task_id("d", 0);
  t.label = std::move(label);
  t.extra = std::move(extra);
  return t;
}

TEST(ResultSink, TypedAddMapsRateFields) {
  ResultRow row;
  row.mechanism = "PolSP";
  row.pattern = "uniform";
  row.offered = 0.9;
  row.accepted = 0.85;
  row.generated = 0.9;
  row.avg_latency = 20.5;
  row.jain = 0.99;
  row.escape_frac = 0.01;
  row.forced_frac = 0.002;
  row.p99_latency = 77;
  row.cycles = 600;
  row.packets = 4321;

  ResultSink sink("d");
  sink.add(task_with_seed(TaskKind::kRate, 42, "lbl", "k=v"), TaskResult(row));
  const ResultRecord& rec = sink.records()[0];
  EXPECT_EQ(rec.kind, "rate");
  EXPECT_EQ(rec.task_id, "d/000000");
  EXPECT_EQ(rec.label, "lbl");
  EXPECT_EQ(rec.extra, "k=v");
  EXPECT_EQ(rec.seed, 42u);
  EXPECT_EQ(rec.mechanism, "PolSP");
  EXPECT_EQ(rec.pattern, "uniform");
  EXPECT_EQ(rec.offered, 0.9);
  EXPECT_EQ(rec.accepted, 0.85);
  EXPECT_EQ(rec.p99_latency, 77);
  EXPECT_EQ(rec.packets, 4321);
  EXPECT_TRUE(rec.series.empty());
}

TEST(ResultSink, TypedAddMapsCompletionFields) {
  CompletionResult comp;
  comp.mechanism = "OmniSP";
  comp.pattern = "rpn";
  comp.drained = true;
  comp.completion_time = 1234;
  comp.num_servers = 64;
  comp.series = TimeSeries(250);
  comp.series.add(0, 10);
  comp.series.add(260, 20);
  comp.series.add(510, 30);

  ResultSink sink("d");
  sink.add(task_with_seed(TaskKind::kCompletion, 5), TaskResult(comp));
  const ResultRecord& rec = sink.records()[0];
  EXPECT_EQ(rec.kind, "completion");
  EXPECT_EQ(rec.mechanism, "OmniSP");
  EXPECT_EQ(rec.pattern, "rpn");
  EXPECT_TRUE(rec.drained);
  EXPECT_EQ(rec.completion_time, 1234);
  EXPECT_EQ(rec.num_servers, 64);
  EXPECT_EQ(rec.series_width, 250);
  EXPECT_EQ(rec.series, (std::vector<std::int64_t>{10, 20, 30}));
  EXPECT_EQ(rec.accepted, 0.0);  // completion runs have no rate scalars
}

TEST(ResultSink, TypedAddMapsDynamicFields) {
  DynamicResult dyn;
  dyn.row.mechanism = "PolSP";
  dyn.row.pattern = "uniform";
  dyn.row.offered = 0.7;
  dyn.row.accepted = 0.65;
  dyn.dropped = 9;
  dyn.num_servers = 32;
  dyn.series = TimeSeries(500);
  dyn.series.add(0, 111);
  dyn.series.add(750, 222);

  ResultSink sink("d");
  sink.add(task_with_seed(TaskKind::kDynamic, 9), TaskResult(dyn));
  const ResultRecord& rec = sink.records()[0];
  EXPECT_EQ(rec.kind, "dynamic");
  EXPECT_EQ(rec.mechanism, "PolSP");
  EXPECT_EQ(rec.offered, 0.7);
  EXPECT_EQ(rec.accepted, 0.65);
  EXPECT_EQ(rec.dropped, 9);
  EXPECT_EQ(rec.num_servers, 32);
  EXPECT_EQ(rec.series_width, 500);
  EXPECT_EQ(rec.series, (std::vector<std::int64_t>{111, 222}));
  EXPECT_FALSE(rec.drained);
}

TEST(ResultSink, AddRowIsRateKind) {
  // A bare rate row: a default TaskSpec (rate kind, no id) carries only
  // the seed and label; the sink supplies the driver.
  ResultRow row;
  row.mechanism = "Minimal";
  row.pattern = "dcr";
  row.offered = 1.0;
  row.accepted = 0.3;
  TaskSpec task;
  task.spec.seed = 13;
  task.label = "lbl";
  ResultSink sink("d");
  sink.add(task, TaskResult(row));
  const ResultRecord& rec = sink.records()[0];
  EXPECT_EQ(rec.kind, "rate");
  EXPECT_EQ(rec.driver, "d");
  EXPECT_EQ(rec.task_id, "");
  EXPECT_EQ(rec.label, "lbl");
  EXPECT_EQ(rec.seed, 13u);
  EXPECT_EQ(rec.mechanism, "Minimal");
  EXPECT_EQ(rec.accepted, 0.3);
}

// ---------------------------------------------------------------------------
// The distributed-layer primitives: per-line serialization, the lenient
// checkpoint parser, and the shard merge.
// ---------------------------------------------------------------------------

TEST(ResultSink, CsvHeaderAndLinesComposeToCsv) {
  const ResultSink sink = sink_with_all_kinds();
  std::string assembled = ResultSink::csv_header();
  for (const ResultRecord& rec : sink.records())
    assembled += ResultSink::csv_line(rec);
  EXPECT_EQ(assembled, sink.csv());
}

TEST(ResultSink, CheckpointParseRecoversCleanPrefix) {
  const ResultSink sink = sink_with_all_kinds();
  const std::string full = sink.csv();

  // Intact file: everything parses, prefix is the whole file.
  std::string clean;
  auto records = ResultSink::parse_csv_checkpoint(full, &clean);
  EXPECT_EQ(records.size(), sink.size());
  EXPECT_EQ(clean, full);

  // Truncate mid-row (drop the last 7 bytes): the partial row is dropped
  // and the prefix ends exactly at the last complete record.
  const std::string truncated = full.substr(0, full.size() - 7);
  records = ResultSink::parse_csv_checkpoint(truncated, &clean);
  ASSERT_EQ(records.size(), sink.size() - 1);
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(records[i], sink.records()[i]);
  EXPECT_EQ(clean + ResultSink::csv_line(sink.records().back()), full);

  // Headerless garbage: no records, empty prefix.
  records = ResultSink::parse_csv_checkpoint("not,a,checkpoint\n", &clean);
  EXPECT_TRUE(records.empty());
  EXPECT_TRUE(clean.empty());

  // Empty file: same.
  records = ResultSink::parse_csv_checkpoint("", &clean);
  EXPECT_TRUE(records.empty());
  EXPECT_TRUE(clean.empty());
}

/// The CSV line of sample_rate_record() with column \p column's cell
/// replaced by \p cell (the record has no quoted fields).
std::string rate_line_with_cell(const std::string& column,
                                const std::string& cell) {
  ResultRecord rec = sample_rate_record();
  rec.driver = "test_driver";
  const std::string line = ResultSink::csv_line(rec);
  const std::vector<std::string>& cols = ResultSink::columns();
  const auto at = static_cast<std::size_t>(
      std::find(cols.begin(), cols.end(), column) - cols.begin());
  std::string out;
  std::size_t start = 0;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    const std::size_t end = std::min(line.find(',', start), line.size() - 1);
    if (i) out += ',';
    out += i == at ? cell : line.substr(start, end - start);
    start = end + 1;
  }
  return out + '\n';
}

TEST(ResultSinkDeathTest, ParseRejectsACellThatIsNotAWholeToken) {
  // An intact line parses; each garbled cell aborts naming the row (the
  // header is row 1) and the column instead of reading as 0.
  const std::string head =
      ResultSink::csv_header() + rate_line_with_cell("label", "x");
  EXPECT_EQ(ResultSink::parse_csv(head).size(), 1u);
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"accepted", "abc"},   {"accepted", "0.5x"},
      {"accepted", " 0.5"},  {"accepted", ""},
      {"seed", "-1"},        {"seed", "18446744073709551616"},
      {"packets", "1e3"},    {"packets", "9223372036854775808"},
      {"drained", "2"},      {"series", "1|x"},
  };
  for (const auto& [column, cell] : bad) {
    SCOPED_TRACE(column + "=" + cell);
    EXPECT_DEATH(
        ResultSink::parse_csv(head + rate_line_with_cell(column, cell)),
        "result CSV row 3, column " + column + ":");
  }
}

TEST(ResultSink, CheckpointParseStopsAtAGarbledCell) {
  // A row whose cell parse_csv would reject ends the clean prefix, like a
  // row cut short by a crash.
  const std::string head =
      ResultSink::csv_header() + rate_line_with_cell("label", "a");
  std::string clean;
  const auto records = ResultSink::parse_csv_checkpoint(
      head + rate_line_with_cell("accepted", "abc") +
          rate_line_with_cell("label", "c"),
      &clean);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].label, "a");
  EXPECT_EQ(clean, head);
}

TEST(ResultSink, MergeRestoresGridOrder) {
  // Shard 0 holds even grid indices, shard 1 odd ones; the merge must
  // interleave them back into id order, exactly one record per task.
  std::vector<ResultRecord> shard0, shard1, reference;
  for (std::size_t i = 0; i < 7; ++i) {
    ResultRecord r;
    r.driver = "d";
    r.task_id = make_task_id("d", i);
    r.seed = i;
    reference.push_back(r);
    (i % 2 == 0 ? shard0 : shard1).push_back(r);
  }
  const auto merged = ResultSink::merge({shard1, shard0});
  ASSERT_EQ(merged.size(), reference.size());
  for (std::size_t i = 0; i < merged.size(); ++i)
    EXPECT_EQ(merged[i], reference[i]);
  EXPECT_EQ(ResultSink::csv(merged), ResultSink::csv(reference));
}

TEST(ResultSink, MergeKeepsIdlessRecordsStable) {
  // Records without task ids (graph/info) keep their relative order and
  // sort ahead of id-carrying rows.
  ResultRecord a, b, c;
  a.label = "first";
  b.label = "second";
  c.task_id = make_task_id("d", 0);
  const auto merged = ResultSink::merge({{a, b}, {c}});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].label, "first");
  EXPECT_EQ(merged[1].label, "second");
  EXPECT_EQ(merged[2].task_id, "d/000000");
}

TEST(ResultSinkDeathTest, MergeRejectsADuplicatedTask) {
  // The same shard passed twice (or two overlapping shards): every task
  // of it would be on record twice. The merge must refuse, naming a task.
  std::vector<ResultRecord> shard;
  for (std::size_t i = 0; i < 3; ++i) {
    ResultRecord r;
    r.task_id = make_task_id("d", i);
    shard.push_back(r);
  }
  EXPECT_DEATH(ResultSink::merge({shard, shard}),
               "merge input holds task d/000000 twice");
  EXPECT_DEATH(ResultSink::merge({shard, {shard[2]}}),
               "merge input holds task d/000002 twice");
}

TEST(ResultSink, MergeKeepsEveryRowOfOneTaskGroup) {
  // A multitenant task writes its tenant rows, then its summary row, all
  // under one id; telemetry files hold many rows per task. Neither is a
  // duplicate.
  ResultRecord tenant, summary, telemetry;
  tenant.task_id = summary.task_id = make_task_id("d", 0);
  tenant.kind = "tenant";
  summary.kind = "multitenant";
  telemetry.task_id = make_task_id("d", 1);
  telemetry.kind = "telemetry";
  const auto merged =
      ResultSink::merge({{tenant, tenant, summary}, {telemetry, telemetry}});
  EXPECT_EQ(merged.size(), 5u);
}

TEST(ResultSink, WriteReadFiles) {
  const ResultSink sink = sink_with_all_kinds();
  const std::string csv_path = testing::TempDir() + "/hxsp_sink_test.csv";
  ASSERT_TRUE(sink.write_csv(csv_path));

  auto slurp = [](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string content;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
    std::fclose(f);
    return content;
  };
  EXPECT_EQ(slurp(csv_path), sink.csv());
  std::remove(csv_path.c_str());
}

} // namespace
} // namespace hxsp
