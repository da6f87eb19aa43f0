#include "harness/sweep.hpp"

#include "telemetry/capture.hpp"

namespace hxsp {

ParallelSweep::ParallelSweep(int workers) : pool_(workers) {}

std::vector<TaskResult> ParallelSweep::run_tasks(
    const std::vector<TaskSpec>& tasks,
    const std::function<void(std::size_t, const TaskResult&)>& on_result,
    int step_threads, std::vector<TelemetryCapture>* captures) {
  if (captures) captures->assign(tasks.size(), TelemetryCapture{});
  return map<TaskResult>(
      tasks.size(),
      [&tasks, step_threads, captures](std::size_t i) {
        return run_task(tasks[i], step_threads,
                        captures ? &(*captures)[i] : nullptr);
      },
      on_result);
}

std::vector<TaskSpec> ParallelSweep::expand_task_seeds(const TaskSpec& proto,
                                                       std::uint64_t first_seed,
                                                       int trials) {
  std::vector<TaskSpec> tasks;
  tasks.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    TaskSpec task = proto;
    task.spec.seed = first_seed + static_cast<std::uint64_t>(t);
    tasks.push_back(std::move(task));
  }
  return tasks;
}

} // namespace hxsp
