#include "harness/taskspec.hpp"

#include <cstdio>

#include "util/check.hpp"
#include "util/jsonio.hpp"

namespace hxsp {

const char* task_kind_name(TaskKind kind) {
  switch (kind) {
    case TaskKind::kRate: return "rate";
    case TaskKind::kCompletion: return "completion";
    case TaskKind::kDynamic: return "dynamic";
    case TaskKind::kWorkload: return "workload";
    case TaskKind::kMultitenant: return "multitenant";
  }
  return "?";
}

TaskKind task_kind_from_name(const std::string& name) {
  if (name == "rate") return TaskKind::kRate;
  if (name == "completion") return TaskKind::kCompletion;
  if (name == "dynamic") return TaskKind::kDynamic;
  if (name == "workload") return TaskKind::kWorkload;
  if (name == "multitenant") return TaskKind::kMultitenant;
  HXSP_CHECK_MSG(false, ("unknown task kind: " + name).c_str());
  return TaskKind::kRate;
}

TaskSpec TaskSpec::rate(ExperimentSpec spec, double offered) {
  TaskSpec t;
  t.kind = TaskKind::kRate;
  t.spec = std::move(spec);
  t.offered = offered;
  return t;
}

TaskSpec TaskSpec::completion(ExperimentSpec spec, long packets_per_server,
                              Cycle bucket_width, Cycle max_cycles) {
  TaskSpec t;
  t.kind = TaskKind::kCompletion;
  t.spec = std::move(spec);
  t.packets_per_server = packets_per_server;
  t.bucket_width = bucket_width;
  t.max_cycles = max_cycles;
  return t;
}

TaskSpec TaskSpec::dynamic_faults(ExperimentSpec spec, double offered,
                                  std::vector<FaultEvent> events) {
  TaskSpec t;
  t.kind = TaskKind::kDynamic;
  t.spec = std::move(spec);
  t.offered = offered;
  t.events = std::move(events);
  return t;
}

TaskSpec TaskSpec::workload(ExperimentSpec spec, WorkloadParams params,
                            Cycle bucket_width, Cycle max_cycles) {
  TaskSpec t;
  t.kind = TaskKind::kWorkload;
  t.spec = std::move(spec);
  t.workload_params = std::move(params);
  t.bucket_width = bucket_width;
  t.max_cycles = max_cycles;
  return t;
}

TaskSpec TaskSpec::multitenant(ExperimentSpec spec, MultitenantParams params,
                               Cycle bucket_width, Cycle max_cycles) {
  TaskSpec t;
  t.kind = TaskKind::kMultitenant;
  t.spec = std::move(spec);
  t.multitenant_params = std::move(params);
  t.bucket_width = bucket_width;
  t.max_cycles = max_cycles;
  return t;
}

std::string TaskSpec::driver() const {
  const std::size_t slash = id.find('/');
  return slash == std::string::npos ? std::string() : id.substr(0, slash);
}

std::string TaskSpec::to_json() const {
  JsonWriter w;
  write_json(w, *this);
  return w.str();
}

TaskSpec TaskSpec::from_json(const JsonValue& v) {
  TaskSpec t;
  read_json(v, t, "");
  return t;
}

TaskSpec TaskSpec::from_json_text(const std::string& text) {
  return from_json(JsonValue::parse(text));
}

std::string manifest_to_json(const std::vector<TaskSpec>& tasks) {
  JsonWriter w;
  write_json(w, tasks);
  return w.str() + "\n";
}

std::vector<TaskSpec> manifest_from_json(const std::string& text) {
  const JsonValue doc = JsonValue::parse(text);
  std::vector<TaskSpec> tasks;
  tasks.reserve(doc.array().size());
  for (const JsonValue& v : doc.array()) tasks.push_back(TaskSpec::from_json(v));
  return tasks;
}

std::string make_task_id(const std::string& driver, std::size_t index) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%06zu", index);
  return driver + "/" + buf;
}

TaskKind task_result_kind(const TaskResult& result) {
  switch (result.index()) {
    case 0: return TaskKind::kRate;
    case 1: return TaskKind::kCompletion;
    case 2: return TaskKind::kDynamic;
    case 3: return TaskKind::kWorkload;
    default: return TaskKind::kMultitenant;
  }
}

const ResultRow* task_result_row(const TaskResult& result) {
  if (const ResultRow* row = std::get_if<ResultRow>(&result)) return row;
  if (const DynamicResult* dyn = std::get_if<DynamicResult>(&result))
    return &dyn->row;
  return nullptr;
}

TaskResult run_task(const TaskSpec& task, int step_threads,
                    TelemetryCapture* telemetry) {
  Experiment e(task.spec);
  // Execution knob, not part of the spec (any value is bit-identical, so
  // it never belongs in a manifest — see TaskSpec's codec note).
  if (step_threads > 0) e.set_step_threads(step_threads);
  if (telemetry) e.attach_telemetry(telemetry);
  switch (task.kind) {
    case TaskKind::kCompletion:
      return e.run_completion(task.packets_per_server, task.bucket_width,
                              task.max_cycles);
    case TaskKind::kDynamic:
      return e.run_load_dynamic(task.offered, task.events);
    case TaskKind::kWorkload:
      return e.run_workload(task.workload_params, task.bucket_width,
                            task.max_cycles);
    case TaskKind::kMultitenant:
      return e.run_multitenant(task.multitenant_params, task.bucket_width,
                               task.max_cycles);
    case TaskKind::kRate:
      break;
  }
  return e.run_load(task.offered);
}

} // namespace hxsp
