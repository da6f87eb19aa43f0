#pragma once
/// \file runner.hpp
/// Manifest execution with checkpoint/resume — the library behind the
/// hxsp_runner tool, exposed so tests can drive kill-and-resume without
/// spawning processes.
///
/// A run takes an ordered TaskSpec list (a --emit-tasks manifest), keeps
/// only its --shard slice, skips every task whose id already appears in
/// the CSV checkpoint file, executes the rest through ParallelSweep and
/// appends one CSV row per record as it is delivered (in submission
/// order, flushed per row). Because delivery order is grid order and ids
/// are stable, a run killed at any byte and restarted with the same
/// manifest and file converges to output byte-identical to a single
/// uninterrupted run; a partial trailing row is truncated away on load.

#include <cstddef>
#include <string>
#include <vector>

#include "harness/grid.hpp"
#include "metrics/resultsink.hpp"
#include "util/fileio.hpp"

namespace hxsp {

struct RunnerOptions {
  int jobs = 0;               ///< ParallelSweep workers (0 = hardware)
  int step_threads = 0;       ///< intra-run step-pool workers per task
                              ///< (0 = serial stepping; any value is
                              ///< bit-identical by the engine contract)
  ShardSpec shard;            ///< slice of the manifest to run
  std::string csv_path;       ///< checkpoint + CSV output ("" = in-memory)
  bool quiet = false;         ///< suppress per-task progress lines

  /// Telemetry/trace artefacts, written on completion ("" = none). These
  /// are *separate* files from csv_path — the result CSV stays
  /// byte-identical whether or not telemetry is on. They cover only the
  /// tasks executed by this invocation: tasks resumed from a checkpoint
  /// were simulated by an earlier process and have no capture here.
  std::string telemetry_csv_path; ///< kind="telemetry" rows as CSV
  std::string trace_json_path;    ///< sampled hops as Chrome trace JSON
  std::string trace_jsonl_path;   ///< sampled hops as JSONL (diffable)

  /// Heartbeat on stderr after each completed task: done/total and an
  /// ETA extrapolated from completed-task wall time. Requires
  /// \ref now_seconds; purely cosmetic (stderr only, never in artefacts).
  bool progress = false;
  /// Injected wall-clock (seconds, monotonic) for the progress ETA. A
  /// function pointer so the deterministic library core contains no
  /// timing calls — the tool main() supplies one (nullptr: no ETA).
  double (*now_seconds)() = nullptr;
};

struct RunnerReport {
  std::size_t manifest_tasks = 0;  ///< tasks in the manifest
  std::size_t shard_tasks = 0;     ///< tasks in this process's shard
  std::size_t resumed = 0;         ///< shard tasks already in the checkpoint
  std::size_t executed = 0;        ///< tasks actually simulated now
  std::vector<ResultRecord> records;  ///< full record set after the run
  /// kind="telemetry" rows of the tasks executed now (empty unless a
  /// telemetry/trace artefact was requested; see RunnerOptions).
  std::vector<ResultRecord> telemetry_records;
};

/// Executes \p tasks under \p opts as described above. Aborts
/// (HXSP_CHECK) when a task id is empty or the checkpoint/output file
/// cannot be written.
RunnerReport run_manifest(const std::vector<TaskSpec>& tasks,
                          const RunnerOptions& opts);

} // namespace hxsp
