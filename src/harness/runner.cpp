#include "harness/runner.hpp"

#include <cstdio>
#include <set>

#include "harness/sweep.hpp"
#include "telemetry/capture.hpp"
#include "util/check.hpp"

namespace hxsp {

RunnerReport run_manifest(const std::vector<TaskSpec>& tasks,
                          const RunnerOptions& opts) {
  RunnerReport report;
  report.manifest_tasks = tasks.size();

  // Resume: the checkpoint's clean prefix defines the completed set; any
  // trailing partial row from a crash is truncated away so the file is a
  // pure sequence of whole records before we append to it.
  std::set<std::string> completed;
  if (!opts.csv_path.empty()) {
    std::string existing;
    if (try_read_file(opts.csv_path, &existing)) {
      std::string clean;
      report.records = ResultSink::parse_csv_checkpoint(existing, &clean);
      // An empty clean prefix means either a run killed while writing
      // the header (content is a strict prefix of the header: restart
      // from scratch) or a foreign file — refuse to clobber the latter.
      HXSP_CHECK_MSG(!clean.empty() || existing.empty() ||
                         ResultSink::csv_header().compare(
                             0, existing.size(), existing) == 0,
                     "existing --csv file is not a result checkpoint");
      if (clean != existing) {
        HXSP_CHECK_MSG(write_whole_file(opts.csv_path, clean),
                       "cannot rewrite checkpoint file");
        if (!opts.quiet)
          std::fprintf(stderr,
                       "hxsp_runner: dropped %zu trailing bytes of a "
                       "partial record from %s\n",
                       existing.size() - clean.size(), opts.csv_path.c_str());
      }
      // A task is complete when its *summary* row is on record. Tenant
      // rows (kind "tenant") share their parent task's id but are
      // written before the summary, so a kill mid-group must not mark
      // the task done — and the orphaned tenant rows of such a group are
      // purged here so the re-run cannot duplicate them.
      for (const ResultRecord& rec : report.records)
        if (is_task_summary(rec)) completed.insert(rec.task_id);
      std::vector<ResultRecord> kept;
      kept.reserve(report.records.size());
      for (ResultRecord& rec : report.records) {
        if (rec.kind == "tenant" && !completed.count(rec.task_id)) continue;
        kept.push_back(std::move(rec));
      }
      if (kept.size() != report.records.size()) {
        report.records = std::move(kept);
        std::string rewritten = ResultSink::csv_header();
        for (const ResultRecord& rec : report.records)
          rewritten += ResultSink::csv_line(rec);
        HXSP_CHECK_MSG(write_whole_file(opts.csv_path, rewritten),
                       "cannot rewrite checkpoint file");
        if (!opts.quiet)
          std::fprintf(stderr,
                       "hxsp_runner: purged tenant rows of an incomplete "
                       "task group from %s\n",
                       opts.csv_path.c_str());
      } else {
        report.records = std::move(kept);
      }
    }
  }

  std::vector<TaskSpec> todo;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    HXSP_CHECK_MSG(!tasks[i].id.empty(),
                   "manifest task without an id (route grids through "
                   "TaskGrid / --emit-tasks)");
    if (!opts.shard.covers(i)) continue;
    ++report.shard_tasks;
    if (completed.count(tasks[i].id)) {
      ++report.resumed;
      continue;
    }
    todo.push_back(tasks[i]);
  }

  std::FILE* out = nullptr;
  if (!opts.csv_path.empty()) {
    const bool fresh = report.records.empty();
    out = std::fopen(opts.csv_path.c_str(), fresh ? "wb" : "ab");
    HXSP_CHECK_MSG(out != nullptr, "cannot open checkpoint file for append");
    if (fresh) {
      const std::string header = ResultSink::csv_header();
      HXSP_CHECK(std::fwrite(header.data(), 1, header.size(), out) ==
                 header.size());
      std::fflush(out);
    }
  }

  // Telemetry captures are collected only when some artefact consumes
  // them; otherwise the tasks run with a null capture pointer and the
  // telemetry surface costs nothing here.
  const bool want_telemetry = !opts.telemetry_csv_path.empty() ||
                              !opts.trace_json_path.empty() ||
                              !opts.trace_jsonl_path.empty();
  std::vector<TelemetryCapture> captures;

  const double started =
      (opts.progress && opts.now_seconds) ? opts.now_seconds() : 0;

  ParallelSweep sweep(opts.jobs);
  sweep.run_tasks(todo, [&](std::size_t i, const TaskResult& result) {
    std::vector<ResultRecord> group = make_records(todo[i], result);
    if (out) {
      // The whole group goes out in one append + flush; the summary row
      // is last, so a kill inside the write leaves only tenant rows,
      // which the resume path above purges before re-running the task.
      std::string lines;
      for (const ResultRecord& rec : group) lines += ResultSink::csv_line(rec);
      HXSP_CHECK_MSG(std::fwrite(lines.data(), 1, lines.size(), out) ==
                         lines.size(),
                     "short write to checkpoint file");
      std::fflush(out);
    }
    if (!opts.quiet)
      std::fprintf(stderr, "hxsp_runner: [%zu/%zu] %s done\n", i + 1,
                   todo.size(), todo[i].id.c_str());
    if (opts.progress) {
      // Heartbeat: delivery is in submission order, so i + 1 tasks are
      // done. ETA assumes the remaining tasks cost the observed average
      // — crude but free, and it only ever touches stderr.
      const std::size_t done = i + 1;
      if (opts.now_seconds) {
        const double elapsed = opts.now_seconds() - started;
        const double eta =
            elapsed / static_cast<double>(done) *
            static_cast<double>(todo.size() - done);
        std::fprintf(stderr,
                     "hxsp_runner: progress %zu/%zu (%.0f%%) elapsed %.1fs "
                     "eta %.1fs\n",
                     done, todo.size(),
                     100.0 * static_cast<double>(done) /
                         static_cast<double>(todo.size()),
                     elapsed, eta);
      } else {
        std::fprintf(stderr, "hxsp_runner: progress %zu/%zu (%.0f%%)\n", done,
                     todo.size(),
                     100.0 * static_cast<double>(done) /
                         static_cast<double>(todo.size()));
      }
    }
    for (ResultRecord& rec : group)
      report.records.push_back(std::move(rec));
    ++report.executed;
  }, opts.step_threads, want_telemetry ? &captures : nullptr);
  if (out) std::fclose(out);

  if (want_telemetry) {
    // Rows and traces cover the tasks executed *now*, in submission
    // order; resumed tasks ran in an earlier process and left no capture
    // behind (documented in RunnerOptions).
    for (std::size_t i = 0; i < todo.size(); ++i)
      for (ResultRecord& rec : make_telemetry_records(todo[i], captures[i]))
        report.telemetry_records.push_back(std::move(rec));
    if (!opts.telemetry_csv_path.empty())
      HXSP_CHECK_MSG(write_whole_file(opts.telemetry_csv_path,
                                      ResultSink::csv(report.telemetry_records)),
                     "cannot write telemetry CSV");
    std::vector<TaskTrace> traces;
    for (std::size_t i = 0; i < todo.size(); ++i)
      if (captures[i].trace_sample > 0)
        traces.push_back(TaskTrace{todo[i].id, &captures[i].hops});
    if (!opts.trace_json_path.empty())
      HXSP_CHECK_MSG(
          write_whole_file(opts.trace_json_path, trace_chrome_json(traces)),
          "cannot write Chrome trace JSON");
    if (!opts.trace_jsonl_path.empty())
      HXSP_CHECK_MSG(write_whole_file(opts.trace_jsonl_path,
                                      trace_jsonl(traces)),
                     "cannot write trace JSONL");
  }
  return report;
}

} // namespace hxsp
