#include "metrics/resultsink.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "telemetry/capture.hpp"
#include "util/fileio.hpp"
#include "util/jsonio.hpp"
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

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

std::string join_series(const std::vector<std::int64_t>& series) {
  std::string out;
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i) out += '|';
    out += fmt_i64(series[i]);
  }
  return out;
}

std::vector<std::int64_t> split_series(const std::string& s) {
  std::vector<std::int64_t> out;
  if (s.empty()) return out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find('|', start);
    const std::string field = s.substr(start, pos - start);
    out.push_back(static_cast<std::int64_t>(
        std::strtoll(field.c_str(), nullptr, 10)));
    if (pos == std::string::npos) return out;
    start = pos + 1;
  }
}

double parse_double(const std::string& s) {
  return std::strtod(s.c_str(), nullptr);
}

std::int64_t parse_i64(const std::string& s) {
  return static_cast<std::int64_t>(std::strtoll(s.c_str(), nullptr, 10));
}

std::uint64_t parse_u64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
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

/// A JSON record value in its CSV field form: numbers as their raw
/// tokens (so parse_json(json(x)) == x bit-exactly), booleans as
/// true/false, integer arrays '|'-joined like the CSV series encoding.
std::string json_field(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kString: return v.as_string();
    case JsonValue::Kind::kNumber: return v.number_token();
    case JsonValue::Kind::kBool: return v.as_bool() ? "true" : "false";
    case JsonValue::Kind::kArray: {
      std::string out;
      for (const JsonValue& b : v.array()) {
        if (!out.empty()) out += '|';
        out += b.number_token();
      }
      return out;
    }
    default: break;
  }
  HXSP_CHECK_MSG(false, "unexpected value in JSON record");
  return {};
}

/// Column order must match columns(); the single source of the mapping
/// between a record and its serialized fields.
std::vector<std::string> record_fields(const ResultRecord& r) {
  return {r.driver,
          r.task_id,
          r.kind,
          r.label,
          r.mechanism,
          r.pattern,
          fmt_double(r.offered),
          fmt_u64(r.seed),
          fmt_double(r.generated),
          fmt_double(r.accepted),
          fmt_double(r.avg_latency),
          fmt_double(r.jain),
          fmt_double(r.escape_frac),
          fmt_double(r.forced_frac),
          fmt_i64(r.p99_latency),
          fmt_i64(r.cycles),
          fmt_i64(r.packets),
          fmt_i64(r.num_servers),
          fmt_i64(r.dropped),
          r.drained ? "1" : "0",
          fmt_i64(r.completion_time),
          fmt_i64(r.series_width),
          join_series(r.series),
          r.extra};
}

/// Inverse of record_fields().
ResultRecord record_from_fields(const std::vector<std::string>& f) {
  HXSP_CHECK_MSG(f.size() == ResultSink::columns().size(),
                 "result record has wrong column count");
  ResultRecord r;
  r.driver = f[0];
  r.task_id = f[1];
  r.kind = f[2];
  r.label = f[3];
  r.mechanism = f[4];
  r.pattern = f[5];
  r.offered = parse_double(f[6]);
  r.seed = parse_u64(f[7]);
  r.generated = parse_double(f[8]);
  r.accepted = parse_double(f[9]);
  r.avg_latency = parse_double(f[10]);
  r.jain = parse_double(f[11]);
  r.escape_frac = parse_double(f[12]);
  r.forced_frac = parse_double(f[13]);
  r.p99_latency = parse_i64(f[14]);
  r.cycles = parse_i64(f[15]);
  r.packets = parse_i64(f[16]);
  r.num_servers = parse_i64(f[17]);
  r.dropped = parse_i64(f[18]);
  r.drained = f[19] == "1" || f[19] == "true";
  r.completion_time = parse_i64(f[20]);
  r.series_width = parse_i64(f[21]);
  r.series = split_series(f[22]);
  r.extra = f[23];
  return r;
}

/// True for the columns serialized as JSON strings (everything else is a
/// number, boolean or array).
bool is_string_column(std::size_t col) {
  return col <= 5 || col == ResultSink::columns().size() - 1;
}

} // namespace

bool operator==(const ResultRecord& a, const ResultRecord& b) {
  return a.driver == b.driver && a.task_id == b.task_id && a.kind == b.kind &&
         a.label == b.label &&
         a.mechanism == b.mechanism && a.pattern == b.pattern &&
         a.offered == b.offered && a.seed == b.seed &&
         a.generated == b.generated && a.accepted == b.accepted &&
         a.avg_latency == b.avg_latency && a.jain == b.jain &&
         a.escape_frac == b.escape_frac && a.forced_frac == b.forced_frac &&
         a.p99_latency == b.p99_latency && a.cycles == b.cycles &&
         a.packets == b.packets && a.num_servers == b.num_servers &&
         a.dropped == b.dropped && a.drained == b.drained &&
         a.completion_time == b.completion_time &&
         a.series_width == b.series_width && a.series == b.series &&
         a.extra == b.extra;
}

ResultSink::ResultSink(std::string driver) : driver_(std::move(driver)) {}

const std::vector<std::string>& ResultSink::columns() {
  static const std::vector<std::string> cols = {
      "driver",      "task_id",     "kind",        "label",
      "mechanism",   "pattern",     "offered",     "seed",
      "generated",   "accepted",    "avg_latency", "jain",
      "escape_frac", "forced_frac", "p99_latency", "cycles",
      "packets",     "num_servers", "dropped",     "drained",
      "completion_time", "series_width", "series", "extra"};
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
  const auto fields = record_fields(rec);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out += ',';
    out += csv_escape(fields[i]);
  }
  out += '\n';
  return out;
}

std::string ResultSink::csv(const std::vector<ResultRecord>& records) {
  std::string out = csv_header();
  for (const ResultRecord& rec : records) out += csv_line(rec);
  return out;
}

std::string ResultSink::json(const std::vector<ResultRecord>& records) {
  const auto& cols = columns();
  std::string out = "[";
  for (std::size_t r = 0; r < records.size(); ++r) {
    out += r ? ",\n " : "\n ";
    const auto fields = record_fields(records[r]);
    out += '{';
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i) out += ',';
      out += '"';
      out += cols[i];
      out += "\":";
      if (cols[i] == "series") {
        out += '[';
        const auto& series = records[r].series;
        for (std::size_t b = 0; b < series.size(); ++b) {
          if (b) out += ',';
          out += fmt_i64(series[b]);
        }
        out += ']';
      } else if (cols[i] == "drained") {
        out += records[r].drained ? "true" : "false";
      } else if (is_string_column(i)) {
        out += '"';
        out += json_escape_string(fields[i]);
        out += '"';
      } else {
        out += fields[i];
      }
    }
    out += '}';
  }
  out += "\n]\n";
  return out;
}

bool ResultSink::write_csv(const std::string& path) const {
  return write_whole_file(path, csv());
}

bool ResultSink::write_json(const std::string& path) const {
  return write_whole_file(path, json());
}

std::vector<ResultRecord> ResultSink::parse_csv(const std::string& text) {
  const auto rows = csv_rows(text);
  HXSP_CHECK_MSG(!rows.empty(), "CSV input has no header");
  HXSP_CHECK_MSG(rows.front() == columns(),
                 "CSV header does not match the shared result schema");
  std::vector<ResultRecord> records;
  records.reserve(rows.size() - 1);
  for (std::size_t i = 1; i < rows.size(); ++i)
    records.push_back(record_from_fields(rows[i]));
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
      break;  // a malformed row ends the clean prefix
    records.push_back(record_from_fields(rows.front()));
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
  return all;
}

std::vector<ResultRecord> ResultSink::parse_json(const std::string& text) {
  const JsonValue doc = JsonValue::parse(text);
  const auto& cols = columns();
  std::vector<ResultRecord> records;
  records.reserve(doc.array().size());
  for (const JsonValue& obj : doc.array()) {
    std::vector<std::string> fields(cols.size());
    std::vector<char> seen(cols.size(), 0);
    for (const auto& [key, value] : obj.object()) {
      const std::size_t col = static_cast<std::size_t>(
          std::find(cols.begin(), cols.end(), key) - cols.begin());
      HXSP_CHECK_MSG(col < cols.size(),
                     ("unknown key in JSON record: " + key).c_str());
      HXSP_CHECK_MSG(!seen[col],
                     ("repeated key in JSON record: " + key).c_str());
      seen[col] = 1;
      fields[col] = json_field(value);
    }
    for (std::size_t col = 0; col < cols.size(); ++col)
      HXSP_CHECK_MSG(seen[col],
                     ("missing key in JSON record: " + cols[col]).c_str());
    records.push_back(record_from_fields(fields));
  }
  return records;
}

} // namespace hxsp
