#include "metrics/resultsink.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "telemetry/capture.hpp"
#include "util/fileio.hpp"
#include "util/check.hpp"

namespace hxsp {

namespace {

// ---------------------------------------------------------------------------
// Formatting helpers. Doubles use 17 significant digits so that
// parse(write(x)) == x bit-exactly; the persisted files thereby inherit
// the sweep engine's bit-identity guarantee across worker counts.
// ---------------------------------------------------------------------------

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt_i64(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  return buf;
}

// One CSV field per value type; ResultRecord's field table decides the
// columns. The series is '|'-joined; booleans read back from "1" or "true".
std::string csv_field(const std::string& s) { return s; }
std::string csv_field(double v) { return fmt_double(v); }
std::string csv_field(std::int64_t v) { return fmt_i64(v); }
std::string csv_field(std::uint64_t v) { return std::to_string(v); }
std::string csv_field(bool b) { return b ? "1" : "0"; }
std::string csv_field(const std::vector<std::int64_t>& series) {
  std::string out;
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i) out += '|';
    out += fmt_i64(series[i]);
  }
  return out;
}

// Each reader returns false unless the whole cell is one token of its
// type: no blanks, no trailing characters, integers in range.

/// True when strto* stopped at the end of the non-empty \p f, and \p f
/// does not start with a blank (which strto* would skip).
bool whole_token(const std::string& f, const char* end) {
  return !f.empty() && !std::isspace(static_cast<unsigned char>(f[0])) &&
         end == f.c_str() + f.size();
}

bool parse_csv_field(const std::string& f, std::string& out) {
  out = f;
  return true;
}
bool parse_csv_field(const std::string& f, double& out) {
  char* end = nullptr;
  out = std::strtod(f.c_str(), &end);
  return whole_token(f, end);
}
bool parse_csv_field(const std::string& f, std::int64_t& out) {
  char* end = nullptr;
  errno = 0;
  out = static_cast<std::int64_t>(std::strtoll(f.c_str(), &end, 10));
  return whole_token(f, end) && errno != ERANGE;
}
bool parse_csv_field(const std::string& f, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(f.c_str(), &end, 10);
  // strtoull reads "-1" as its negation modulo 2^64.
  return f[0] != '-' && whole_token(f, end) && errno != ERANGE;
}
bool parse_csv_field(const std::string& f, bool& out) {
  out = f == "1" || f == "true";
  return out || f == "0" || f == "false";
}
bool parse_csv_field(const std::string& f, std::vector<std::int64_t>& out) {
  out.clear();
  if (f.empty()) return true;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = f.find('|', start);
    std::int64_t v = 0;
    if (!parse_csv_field(f.substr(start, pos - start), v)) return false;
    out.push_back(v);
    if (pos == std::string::npos) return true;
    start = pos + 1;
  }
}

// ---------------------------------------------------------------------------
// CSV escaping (RFC 4180): fields containing separators, quotes or
// newlines are quoted, internal quotes doubled.
// ---------------------------------------------------------------------------

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Splits CSV \p text into rows of fields, honouring quoted fields (which
/// may contain commas, doubled quotes and newlines).
std::vector<std::vector<std::string>> csv_rows(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;  // row has content even if fields are empty
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        field_started = true;
        break;
      case ',':
        row.push_back(field);
        field.clear();
        field_started = true;
        break;
      case '\r':
        break;
      case '\n':
        if (field_started || !field.empty() || !row.empty()) {
          row.push_back(field);
          rows.push_back(row);
        }
        field.clear();
        row.clear();
        field_started = false;
        break;
      default:
        field += c;
        field_started = true;
        break;
    }
  }
  HXSP_CHECK_MSG(!in_quotes, "CSV ends inside a quoted field");
  if (field_started || !field.empty() || !row.empty()) {
    row.push_back(field);
    rows.push_back(row);
  }
  return rows;
}

/// Copies a run's consumed-phits series into the record's series columns.
void copy_series(ResultRecord& rec, const TimeSeries& ts) {
  rec.series_width = static_cast<std::int64_t>(ts.width());
  for (std::size_t b = 0; b < ts.num_buckets(); ++b)
    rec.series.push_back(ts.bucket(b));
}

/// Inverse of csv_line() without the escaping: reads one field per column
/// into \p r. Returns "" or, for the first cell that is not a whole token
/// of its column's type, what is wrong with it.
std::string record_from_fields(const std::vector<std::string>& f,
                               ResultRecord& r) {
  HXSP_CHECK_MSG(f.size() == ResultSink::columns().size(),
                 "result record has wrong column count");
  std::string error;
  std::size_t i = 0;
  for_each_field<ResultRecord>([&](const auto& col) {
    const std::string& cell = f[i++];
    if (!parse_csv_field(cell, r.*col.member) && error.empty())
      error = std::string("column ") + col.name + ": '" + cell +
              "' is not a value of the column's type";
  });
  return error;
}

} // namespace

ResultSink::ResultSink(std::string driver) : driver_(std::move(driver)) {}

const std::vector<std::string>& ResultSink::columns() {
  static const std::vector<std::string> cols = [] {
    std::vector<std::string> names;
    for_each_field<ResultRecord>(
        [&](const auto& col) { names.emplace_back(col.name); });
    return names;
  }();
  return cols;
}

void ResultSink::add(ResultRecord rec) {
  rec.driver = driver_;
  records_.push_back(std::move(rec));
}

void ResultSink::add(const TaskSpec& task, const TaskResult& result) {
  for (ResultRecord& rec : make_records(task, result)) add(std::move(rec));
}

ResultRecord make_record(const TaskSpec& task, const TaskResult& result) {
  ResultRecord rec;
  rec.driver = task.driver();
  rec.task_id = task.id;
  rec.kind = task_kind_name(task.kind);
  rec.label = task.label;
  rec.extra = task.extra;
  rec.seed = task.spec.seed;

  if (const ResultRow* row = task_result_row(result)) {
    rec.mechanism = row->mechanism;
    rec.pattern = row->pattern;
    rec.offered = row->offered;
    rec.generated = row->generated;
    rec.accepted = row->accepted;
    rec.avg_latency = row->avg_latency;
    rec.jain = row->jain;
    rec.escape_frac = row->escape_frac;
    rec.forced_frac = row->forced_frac;
    rec.p99_latency = static_cast<std::int64_t>(row->p99_latency);
    rec.cycles = static_cast<std::int64_t>(row->cycles);
    rec.packets = row->packets;
  }
  if (const CompletionResult* c = std::get_if<CompletionResult>(&result)) {
    rec.mechanism = c->mechanism;
    rec.pattern = c->pattern;
    rec.drained = c->drained;
    rec.completion_time = static_cast<std::int64_t>(c->completion_time);
    rec.num_servers = static_cast<std::int64_t>(c->num_servers);
    copy_series(rec, c->series);
  }
  if (const DynamicResult* d = std::get_if<DynamicResult>(&result)) {
    rec.dropped = d->dropped;
    rec.num_servers = static_cast<std::int64_t>(d->num_servers);
    copy_series(rec, d->series);
  }
  if (const WorkloadResult* w = std::get_if<WorkloadResult>(&result)) {
    rec.mechanism = w->mechanism;
    rec.pattern = w->workload;  // the workload name identifies the traffic
    rec.drained = w->drained;
    rec.completion_time = static_cast<std::int64_t>(w->completion_time);
    rec.num_servers = static_cast<std::int64_t>(w->num_servers);
    rec.packets = w->total_packets;
    rec.avg_latency = w->avg_msg_latency;  // message latency, not packet
    rec.p99_latency = static_cast<std::int64_t>(w->p99_msg_latency);
    copy_series(rec, w->series);
    // The shared column set stays fixed (existing CSVs must not change
    // shape), so the workload-only scalars ride in `extra` as key=value
    // pairs behind the task's own payload — still a pure function of
    // (task, result), so shard and in-process rows stay byte-identical.
    std::string add = "messages=" + std::to_string(w->num_messages) +
                      ";p50_msg=" + fmt_i64(w->p50_msg_latency) +
                      ";phase_cycles=";
    for (std::size_t p = 0; p < w->phase_cycles.size(); ++p) {
      if (p) add += '|';
      add += fmt_i64(w->phase_cycles[p]);
    }
    rec.extra = rec.extra.empty() ? add : rec.extra + ";" + add;
  }
  if (const MultitenantResult* m = std::get_if<MultitenantResult>(&result)) {
    rec.mechanism = m->mechanism;
    rec.pattern = m->placement;  // the placement policy identifies the config
    rec.drained = m->drained;
    rec.completion_time = static_cast<std::int64_t>(m->completion_time);
    rec.num_servers = static_cast<std::int64_t>(m->num_servers);
    rec.packets = m->total_packets;
    copy_series(rec, m->series);
    const std::string add =
        "placement=" + m->placement + ";jobs=" + std::to_string(m->num_jobs);
    rec.extra = rec.extra.empty() ? add : rec.extra + ";" + add;
  }
  return rec;
}

bool is_task_summary(const ResultRecord& rec) {
  return !rec.task_id.empty() && rec.kind != "tenant" &&
         rec.kind != "telemetry";
}

std::vector<ResultRecord> make_records(const TaskSpec& task,
                                       const TaskResult& result) {
  std::vector<ResultRecord> group;
  const MultitenantResult* m = std::get_if<MultitenantResult>(&result);
  if (m == nullptr) {
    group.push_back(make_record(task, result));
    return group;
  }
  group.reserve(m->jobs.size() + 1);
  for (const TenantJobStats& st : m->jobs) {
    ResultRecord rec;
    rec.driver = task.driver();
    rec.task_id = task.id;
    rec.kind = "tenant";
    rec.label = task.label;
    rec.seed = task.spec.seed;
    rec.mechanism = m->mechanism;
    rec.pattern = st.workload;  // the workload name identifies the traffic
    rec.drained = st.completed >= 0;
    rec.completion_time = static_cast<std::int64_t>(st.completed);
    rec.num_servers = static_cast<std::int64_t>(st.demand);
    rec.packets = st.total_packets;
    rec.avg_latency = st.avg_msg_latency;  // message latency, not packet
    rec.p99_latency = static_cast<std::int64_t>(st.p99_msg_latency);
    rec.cycles = static_cast<std::int64_t>(st.span());
    const char* deadline = st.deadline == 0       ? "none"
                           : st.deadline_met()    ? "met"
                                                  : "miss";
    const std::string add =
        "placement=" + m->placement + ";job=" + std::to_string(st.job) +
        ";demand=" + fmt_i64(st.demand) + ";arrival=" + fmt_i64(st.arrival) +
        ";admitted=" + fmt_i64(st.admitted) +
        ";queue_wait=" + fmt_i64(st.queue_wait()) +
        ";span=" + fmt_i64(st.span()) +
        ";isolated=" + fmt_i64(st.isolated_span) +
        ";slowdown=" + fmt_double(st.slowdown) +
        ";p50_msg=" + fmt_i64(st.p50_msg_latency) +
        ";messages=" + std::to_string(st.num_messages) +
        ";deadline=" + deadline;
    rec.extra = task.extra.empty() ? add : task.extra + ";" + add;
    group.push_back(std::move(rec));
  }
  // The fabric summary comes last: a checkpoint row of this kind is the
  // proof the whole group made it to disk.
  group.push_back(make_record(task, result));
  return group;
}

namespace {

// Shared shell of every telemetry row: same identity columns as the
// task's result rows, so telemetry CSVs merge/sort by task_id exactly
// like result CSVs do.
ResultRecord telemetry_base(const TaskSpec& task, const TelemetryCapture& cap) {
  ResultRecord rec;
  rec.driver = task.driver();
  rec.task_id = task.id;
  rec.kind = "telemetry";
  rec.mechanism = task.spec.mechanism;
  rec.pattern = task.spec.pattern;
  rec.offered = task.offered;
  rec.seed = task.spec.seed;
  rec.num_servers = static_cast<std::int64_t>(cap.num_servers);
  rec.series_width = cap.window;
  return rec;
}

} // namespace

std::vector<ResultRecord> make_telemetry_records(const TaskSpec& task,
                                                 const TelemetryCapture& cap) {
  std::vector<ResultRecord> rows;
  if (!cap.active()) return rows;

  // One aggregate row per windowed metric; the label names the metric
  // and the series holds one value per closed window.
  struct FrameMetric {
    const char* label;
    std::int64_t (*get)(const TelemetryFrame&);
  };
  static const FrameMetric kFrameMetrics[] = {
      {"consumed_phits", [](const TelemetryFrame& f) { return f.consumed_phits; }},
      {"consumed_packets", [](const TelemetryFrame& f) { return f.consumed; }},
      {"injected_packets", [](const TelemetryFrame& f) { return f.injected; }},
      {"p50_latency",
       [](const TelemetryFrame& f) { return static_cast<std::int64_t>(f.p50_latency); }},
      {"p99_latency",
       [](const TelemetryFrame& f) { return static_cast<std::int64_t>(f.p99_latency); }},
      {"hops_routing", [](const TelemetryFrame& f) { return f.hops_routing; }},
      {"hops_escape", [](const TelemetryFrame& f) { return f.hops_escape; }},
      {"hops_forced", [](const TelemetryFrame& f) { return f.hops_forced; }},
      {"escape_entries", [](const TelemetryFrame& f) { return f.escape_entries; }},
      {"credit_stalls", [](const TelemetryFrame& f) { return f.credit_stalls; }},
      {"link_phits", [](const TelemetryFrame& f) { return f.link_phits; }},
      {"link_max_phits", [](const TelemetryFrame& f) { return f.link_max_phits; }},
      {"occupancy_hwm", [](const TelemetryFrame& f) { return f.occupancy_hwm; }},
  };
  if (!cap.frames.empty()) {
    for (const FrameMetric& m : kFrameMetrics) {
      ResultRecord rec = telemetry_base(task, cap);
      rec.label = m.label;
      rec.extra = "axis=window";
      rec.series.reserve(cap.frames.size());
      for (const TelemetryFrame& f : cap.frames) rec.series.push_back(m.get(f));
      rec.cycles = cap.frames.back().end;
      rows.push_back(std::move(rec));
    }
  }

  // Per-link window series (the heatmap rows). Absent on topologies
  // above TelemetryRegistry::kMaxLinkSeriesLinks directed links.
  for (const LinkWindowSeries& l : cap.links) {
    ResultRecord rec = telemetry_base(task, cap);
    rec.label = "link";
    rec.extra = "axis=window;sw=" + fmt_i64(l.sw) + ";port=" + fmt_i64(l.port) +
                ";to=" + fmt_i64(l.to);
    rec.series = l.phits;
    rec.packets = l.total; // cumulative phits, for sorting hottest links
    rows.push_back(std::move(rec));
  }

  // Cumulative per-router instruments: series index = switch id.
  struct RouterMetric {
    const char* label;
    const std::vector<std::int64_t>* values;
  };
  const RouterMetric kRouterMetrics[] = {
      {"router_injections", &cap.router_injections},
      {"router_ejections", &cap.router_ejections},
      {"router_escape_entries", &cap.router_escape_entries},
      {"router_credit_stalls", &cap.router_credit_stalls},
      {"router_occupancy_hwm", &cap.router_occupancy_hwm},
  };
  if (cap.window > 0) {
    for (const RouterMetric& m : kRouterMetrics) {
      ResultRecord rec = telemetry_base(task, cap);
      rec.label = m.label;
      rec.extra = "axis=router";
      rec.series = *m.values;
      rows.push_back(std::move(rec));
    }
    ResultRecord rec = telemetry_base(task, cap);
    rec.label = "vc_grants";
    rec.extra = "axis=vc";
    rec.series = cap.vc_grants;
    rows.push_back(std::move(rec));
  }

  // Trace summary: the sampled-hop totals (the hops themselves export
  // through trace_chrome_json / trace_jsonl, not the CSV).
  if (cap.trace_sample > 0) {
    ResultRecord rec = telemetry_base(task, cap);
    rec.label = "trace";
    rec.extra = "sample=" + fmt_i64(cap.trace_sample) +
                ";hops=" + fmt_i64(static_cast<std::int64_t>(cap.hops.size())) +
                ";dropped=" + fmt_i64(cap.trace_dropped);
    rows.push_back(std::move(rec));
  }
  return rows;
}

std::string ResultSink::csv_header() {
  std::string out;
  const auto& cols = columns();
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (i) out += ',';
    out += cols[i];
  }
  out += '\n';
  return out;
}

std::string ResultSink::csv_line(const ResultRecord& rec) {
  std::string out;
  bool first = true;
  for_each_field<ResultRecord>([&](const auto& col) {
    if (!first) out += ',';
    first = false;
    out += csv_escape(csv_field(rec.*col.member));
  });
  out += '\n';
  return out;
}

std::string ResultSink::csv(const std::vector<ResultRecord>& records) {
  std::string out = csv_header();
  for (const ResultRecord& rec : records) out += csv_line(rec);
  return out;
}

bool ResultSink::write_csv(const std::string& path) const {
  return write_whole_file(path, csv());
}

std::vector<ResultRecord> ResultSink::parse_csv(const std::string& text) {
  const auto rows = csv_rows(text);
  HXSP_CHECK_MSG(!rows.empty(), "CSV input has no header");
  HXSP_CHECK_MSG(rows.front() == columns(),
                 "CSV header does not match the shared result schema");
  std::vector<ResultRecord> records;
  records.reserve(rows.size() - 1);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    ResultRecord& rec = records.emplace_back();
    const std::string error = record_from_fields(rows[i], rec);
    HXSP_CHECK_MSG(error.empty(), ("result CSV row " + std::to_string(i + 1) +
                                   ", " + error)
                                      .c_str());
  }
  return records;
}

std::vector<ResultRecord> ResultSink::parse_csv_checkpoint(
    const std::string& text, std::string* clean_prefix) {
  // Split into complete (newline-terminated) lines, honouring quoted
  // fields that may span lines; a trailing chunk without its newline is
  // exactly what a kill mid-write leaves behind and is never parsed.
  std::vector<std::string> lines;
  std::string line;
  bool in_quotes = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') in_quotes = !in_quotes;
    if (c == '\n' && !in_quotes) {
      lines.push_back(line + '\n');
      line.clear();
    } else {
      line += c;
    }
  }

  std::vector<ResultRecord> records;
  std::string prefix;
  if (lines.empty() || lines.front() != csv_header()) {
    if (clean_prefix) *clean_prefix = "";
    return records;
  }
  prefix = lines.front();
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto rows = csv_rows(lines[i]);
    if (rows.size() != 1 || rows.front().size() != columns().size())
      break;  // a malformed row ends the clean prefix, as does a bad cell
    ResultRecord rec;
    if (!record_from_fields(rows.front(), rec).empty()) break;
    records.push_back(std::move(rec));
    prefix += lines[i];
  }
  if (clean_prefix) *clean_prefix = std::move(prefix);
  return records;
}

std::vector<ResultRecord> ResultSink::merge(
    const std::vector<std::vector<ResultRecord>>& parts) {
  std::vector<ResultRecord> all;
  for (const auto& part : parts) all.insert(all.end(), part.begin(), part.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const ResultRecord& a, const ResultRecord& b) {
                     return a.task_id < b.task_id;
                   });
  // Sorted by id, the summary rows of one task are adjacent among the
  // summary rows.
  const ResultRecord* prev = nullptr;
  for (const ResultRecord& rec : all) {
    if (!is_task_summary(rec)) continue;
    HXSP_CHECK_MSG(prev == nullptr || prev->task_id != rec.task_id,
                   ("merge input holds task " + rec.task_id +
                    " twice (overlapping shards or a file given twice)")
                       .c_str());
    prev = &rec;
  }
  return all;
}

} // namespace hxsp
