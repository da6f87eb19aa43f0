#pragma once
/// \file resultsink.hpp
/// Uniform persistence of sweep results.
///
/// Every bench driver used to dump its own ad-hoc table; plotting the
/// paper's figures (and trusting the fault-tolerance numbers) needs one
/// schema shared by all of them. A ResultSink collects ResultRecords —
/// one per simulation of any kind (rate, completion, dynamic) or per
/// pure-graph measurement — and serializes them as CSV or JSON with a
/// fixed column set: driver identity, the TaskSpec id the record came
/// from, configuration (mechanism, pattern, offered load, seed), the
/// scalar metrics of ResultRow, the mode specific scalars (dropped,
/// drained, completion_time) and an optional time series of bucketed
/// consumed phits. Driver-specific context that does not fit the shared
/// columns goes into the free-form `label` and `extra` columns, so the
/// column set itself never varies by driver.
///
/// Both formats parse back (parse_csv / parse_json) into bit-identical
/// records: doubles are printed with 17 significant digits, so a
/// write -> parse round trip is lossless and the persisted artefacts
/// inherit the sweep engine's determinism guarantee.
///
/// The task_id column is what the distributed layer keys on: a CSV file
/// doubles as a checkpoint (completed task ids are exactly the ids on
/// record), shard outputs merge by stable-sorting on task_id, and the
/// lenient parse_csv_checkpoint() recovers the complete-record prefix of
/// a file a crash may have truncated mid-row.

#include <cstdint>
#include <string>
#include <vector>

#include "harness/taskspec.hpp"

namespace hxsp {

/// One persisted result in the shared schema. Fields that do not apply
/// to a record's kind keep their zero defaults.
struct ResultRecord {
  std::string driver;        ///< emitting bench driver, e.g. "fig10_completion"
  std::string task_id;       ///< TaskSpec id ("" for non-task records)
  std::string kind = "rate"; ///< rate|completion|dynamic|workload|
                             ///< multitenant|tenant|telemetry|graph|info
  std::string label;         ///< driver context, e.g. a shape or root name
  std::string mechanism;     ///< display name, e.g. "PolSP" ("" when n/a)
  std::string pattern;       ///< traffic pattern ("" when n/a)
  double offered = 0;        ///< requested injection load (0 when n/a)
  std::uint64_t seed = 0;    ///< spec seed the run derived its streams from

  // Scalar metrics (ResultRow's fields; zero when the kind has none).
  double generated = 0;
  double accepted = 0;
  double avg_latency = 0;
  double jain = 0;
  double escape_frac = 0;
  double forced_frac = 0;
  std::int64_t p99_latency = 0;
  std::int64_t cycles = 0;
  std::int64_t packets = 0;

  // Mode-specific scalars.
  std::int64_t num_servers = 0;     ///< for normalising series to rates
  std::int64_t dropped = 0;         ///< dynamic: packets lost on dead wires
  bool drained = false;             ///< completion: finished before deadline
  std::int64_t completion_time = 0; ///< completion: cycle of last consumption

  // Optional time series (consumed phits per bucket; empty when n/a).
  std::int64_t series_width = 0;    ///< bucket width in cycles
  std::vector<std::int64_t> series; ///< bucket sums

  std::string extra; ///< free-form "key=value;key=value" driver payload
};

bool operator==(const ResultRecord& a, const ResultRecord& b);
inline bool operator!=(const ResultRecord& a, const ResultRecord& b) {
  return !(a == b);
}

/// Maps a (task, result) pair onto the shared schema: driver/task_id/
/// label/extra come from the task (driver from its id prefix), kind/
/// mechanism/pattern/offered/seed and the scalars from the task and its
/// result. A pure function of its arguments — the reason an hxsp_runner
/// shard and the in-process driver produce identical rows. For a
/// multitenant task this is the fabric-level summary row only; the full
/// group comes from make_records().
ResultRecord make_record(const TaskSpec& task, const TaskResult& result);

/// The complete row group a task persists. One record for every classic
/// kind; a multitenant task expands to one kind="tenant" row per job (in
/// job order, each carrying that tenant's SLO numbers in the shared
/// columns plus key=value extras) followed by the kind="multitenant"
/// fabric summary row. Every row in a group shares the task's id — and
/// the summary row is written *last*, which is what lets a checkpoint
/// treat "a non-tenant row with this id exists" as the task-complete
/// marker (see run_manifest).
std::vector<ResultRecord> make_records(const TaskSpec& task,
                                       const TaskResult& result);

struct TelemetryCapture; // telemetry/capture.hpp

/// Maps one task's TelemetryCapture onto the shared schema as
/// kind="telemetry" rows: one row per windowed metric (label names the
/// metric, series holds one value per window, series_width is the
/// telemetry window in cycles, extra carries the axis), one row per
/// directed link (label="link", extra names sw/port/to) when the per-link
/// series was kept, per-router/per-VC cumulative rows (axis=router /
/// axis=vc), and a label="trace" summary row when tracing was on. Empty
/// when the capture recorded nothing. These rows go to a *separate*
/// artefact (hxsp_runner --telemetry-csv), never into the main result
/// CSV — which is how telemetry on/off keeps the main CSV byte-identical.
std::vector<ResultRecord> make_telemetry_records(const TaskSpec& task,
                                                 const TelemetryCapture& cap);

/// Collects ResultRecords for one driver and serializes them. The CSV
/// and JSON carry exactly the same records; parse_csv/parse_json invert
/// csv()/json() losslessly.
class ResultSink {
 public:
  explicit ResultSink(std::string driver);

  /// The fixed column set, in serialization order — identical for every
  /// driver and record kind.
  static const std::vector<std::string>& columns();

  /// Appends a fully-specified record; rec.driver is overwritten with
  /// this sink's driver name so one driver cannot impersonate another.
  void add(ResultRecord rec);

  /// Appends make_records(task, result) — the task's whole row group
  /// (driver names still this sink's).
  void add(const TaskSpec& task, const TaskResult& result);

  std::size_t size() const { return records_.size(); }
  const std::vector<ResultRecord>& records() const { return records_; }
  const std::string& driver() const { return driver_; }

  /// Renders all records as CSV (header + one line per record).
  std::string csv() const { return csv(records_); }

  /// Renders all records as a JSON array of flat objects.
  std::string json() const { return json(records_); }

  /// The same renderings for a caller-supplied record list (merge tools).
  static std::string csv(const std::vector<ResultRecord>& records);
  static std::string json(const std::vector<ResultRecord>& records);

  /// The CSV header line and a single record's CSV line, each newline-
  /// terminated — the pieces an append-mode checkpoint writes one task
  /// at a time.
  static std::string csv_header();
  static std::string csv_line(const ResultRecord& rec);

  /// Writes csv()/json() to \p path. Returns false on I/O error.
  bool write_csv(const std::string& path) const;
  bool write_json(const std::string& path) const;

  /// Inverse of csv(): parses header + rows back into records. Aborts
  /// (HXSP_CHECK) on input that does not match the shared schema.
  static std::vector<ResultRecord> parse_csv(const std::string& text);

  /// Lenient checkpoint parse: returns the records of the longest clean
  /// prefix of \p text (header + complete well-formed rows) and, when
  /// \p clean_prefix is non-null, the raw bytes of that prefix — what a
  /// resuming runner truncates the file back to before appending. An
  /// empty or headerless file yields no records and an empty prefix;
  /// a row cut short by a crash is dropped, never half-parsed.
  static std::vector<ResultRecord> parse_csv_checkpoint(
      const std::string& text, std::string* clean_prefix);

  /// Inverse of json(). Aborts (HXSP_CHECK) on malformed JSON and on a
  /// record with an unknown, repeated or missing key.
  static std::vector<ResultRecord> parse_json(const std::string& text);

  /// Concatenates \p parts and stable-sorts by task_id: shard outputs
  /// merge back into grid order (ids are fixed-width, so lexicographic
  /// order is grid order), id-less records keep their relative position
  /// ahead of task records. The merged CSV/JSON of complete shards is
  /// byte-identical to the uninterrupted single-process run.
  static std::vector<ResultRecord> merge(
      const std::vector<std::vector<ResultRecord>>& parts);

 private:
  std::string driver_;
  std::vector<ResultRecord> records_;
};

} // namespace hxsp
