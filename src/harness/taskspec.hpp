#pragma once
/// \file taskspec.hpp
/// The serializable unit of work of the sweep harness.
///
/// A TaskSpec is pure data: a full ExperimentSpec, a task kind selecting
/// which Experiment entry point to run, that kind's parameters, a stable
/// task id, and the presentation context (label/extra) its ResultRecord
/// will carry. Nothing in it references live Experiment state, so a
/// TaskSpec round-trips losslessly through JSON — a sweep grid can be
/// emitted as a manifest (--emit-tasks), sharded across processes or
/// hosts (--shard=i/n through hxsp_runner), checkpointed, and resumed,
/// and every route produces byte-identical ResultSink output to the
/// in-process run of the same grid.
///
/// TaskSpec replaces the former SweepTask as the public unit of work; the
/// execution semantics are unchanged (run_task() is the serial reference
/// the parallel engine's bit-identity contract is stated against).

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "harness/experiment.hpp"

namespace hxsp {

/// Which Experiment entry point a TaskSpec runs.
enum class TaskKind { kRate, kCompletion, kDynamic, kWorkload, kMultitenant };

/// Stable lowercase name for a kind ("rate" / "completion" / "dynamic" /
/// "workload" / "multitenant"); this is also the string ResultSink
/// persists and the JSON codec emits.
const char* task_kind_name(TaskKind kind);

/// Inverse of task_kind_name; aborts (HXSP_CHECK) on an unknown name.
TaskKind task_kind_from_name(const std::string& name);

/// The kind's JSON codec (util/fields.hpp): written as its name.
inline const char* enum_name(TaskKind kind) { return task_kind_name(kind); }
inline void enum_from_name(const std::string& name, TaskKind& kind) {
  kind = task_kind_from_name(name);
}

/// One independent simulation of any kind. Build with the factories
/// below; unused kind parameters are ignored but still serialized, so
/// the JSON form is self-describing and fixed-shape.
struct TaskSpec {
  /// Stable identity, "driver/NNNNNN" when assigned by a TaskGrid. The
  /// checkpoint/resume and shard-merge machinery keys on it: ids are
  /// assigned in grid order with fixed-width indices, so sorting records
  /// by id restores the uninterrupted single-process order.
  std::string id;

  TaskKind kind = TaskKind::kRate;
  ExperimentSpec spec;

  double offered = 1.0;            ///< rate + dynamic modes
  long packets_per_server = 0;     ///< completion mode
  Cycle bucket_width = 1000;       ///< completion + workload modes
  Cycle max_cycles = 0;            ///< completion + workload deadline
  std::vector<FaultEvent> events;  ///< dynamic mode (online failures)
  WorkloadParams workload_params;  ///< workload mode (generator + shape)
  MultitenantParams multitenant_params;  ///< multitenant mode (jobs + policy)

  /// Presentation context persisted with the task's ResultRecord. Must be
  /// task-local (derivable from this task alone), never computed from
  /// sibling results — a sharded or resumed run sees only its own tasks.
  std::string label;
  std::string extra;

  /// Rate-mode task: Experiment::run_load(offered).
  static TaskSpec rate(ExperimentSpec spec, double offered);

  /// Completion-mode task: Experiment::run_completion(...).
  static TaskSpec completion(ExperimentSpec spec, long packets_per_server,
                             Cycle bucket_width, Cycle max_cycles);

  /// Dynamic-fault task: Experiment::run_load_dynamic(offered, events).
  static TaskSpec dynamic_faults(ExperimentSpec spec, double offered,
                                 std::vector<FaultEvent> events);

  /// Workload task: Experiment::run_workload(params, bucket, deadline).
  static TaskSpec workload(ExperimentSpec spec, WorkloadParams params,
                           Cycle bucket_width, Cycle max_cycles);

  /// Multi-tenant task: Experiment::run_multitenant(params, bucket,
  /// deadline).
  static TaskSpec multitenant(ExperimentSpec spec, MultitenantParams params,
                              Cycle bucket_width, Cycle max_cycles);

  /// The driver component of \ref id ("" when the id has none).
  std::string driver() const;

  /// Lossless JSON object; from_json(to_json(t)) == t field for field.
  std::string to_json() const;
  static TaskSpec from_json(const JsonValue& v);
  static TaskSpec from_json_text(const std::string& text);
};

/// Field table: JSON keys, equality (util/fields.hpp).
inline const auto& field_table(const TaskSpec*) {
  using S = TaskSpec;
  static const auto table = std::make_tuple(
      field("id", &S::id), field("kind", &S::kind), field("label", &S::label),
      field("extra", &S::extra), field("offered", &S::offered),
      field("packets_per_server", &S::packets_per_server),
      field("bucket_width", &S::bucket_width),
      field("max_cycles", &S::max_cycles), field("events", &S::events),
      field("workload", &S::workload_params),
      // Manifests written before the multitenant kind lack the key.
      field_or("multitenant", &S::multitenant_params, MultitenantParams{}),
      field("spec", &S::spec));
  return table;
}

inline bool operator==(const TaskSpec& a, const TaskSpec& b) {
  return fields_equal(a, b);
}
inline bool operator!=(const TaskSpec& a, const TaskSpec& b) {
  return !(a == b);
}

/// A manifest is a JSON array of TaskSpec objects — what --emit-tasks
/// writes and hxsp_runner consumes. Round-trips losslessly.
std::string manifest_to_json(const std::vector<TaskSpec>& tasks);
std::vector<TaskSpec> manifest_from_json(const std::string& text);

/// Stable task id: \p driver + "/" + zero-padded \p index (6 digits, so
/// lexicographic order == grid order for any realistic grid size).
std::string make_task_id(const std::string& driver, std::size_t index);

/// Tagged result of a TaskSpec; the alternative matches the task's kind.
using TaskResult = std::variant<ResultRow, CompletionResult, DynamicResult,
                                WorkloadResult, MultitenantResult>;

/// Kind of the alternative held by \p result.
TaskKind task_result_kind(const TaskResult& result);

/// The scalar ResultRow embedded in \p result: the row itself for rate
/// results, DynamicResult::row for dynamic ones, nullptr for completion
/// results (which have no rate-style scalars).
const ResultRow* task_result_row(const TaskResult& result);

/// Runs one task of any kind to completion on a fresh Experiment; the
/// serial reference for the parallel engine's bit-identity contract and
/// exactly what every worker (in-process or hxsp_runner) executes.
/// \p step_threads > 0 attaches a deterministic intra-run step pool of
/// that many workers to the task's Network (Experiment::set_step_threads)
/// — an execution knob, never serialized into manifests, because every
/// value produces bit-identical results by the engine's contract.
/// \p telemetry (optional) receives the run's telemetry capture
/// (Experiment::attach_telemetry) — empty unless the spec enables
/// telemetry_window / trace_sample; never changes the returned result.
TaskResult run_task(const TaskSpec& task, int step_threads = 0,
                    TelemetryCapture* telemetry = nullptr);

} // namespace hxsp
