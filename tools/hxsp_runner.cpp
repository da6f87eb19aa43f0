/// \file hxsp_runner.cpp
/// Distributed sweep runner: executes TaskSpec manifests emitted by the
/// bench drivers (--emit-tasks) with sharding and checkpoint/resume, and
/// merges shard outputs back into the single-process order.
///
/// Run mode:
///   hxsp_runner MANIFEST.json [--shard=i/n] [--jobs=N] [--step-threads=N]
///               [--csv=out.csv] [--quiet] [--progress]
///               [--telemetry-csv=F] [--trace-out=F] [--trace-jsonl=F]
///   --step-threads attaches a deterministic intra-run step pool of N
///   workers to every task's Network (bit-identical at any N, so it
///   composes freely with --jobs/--shard without affecting output).
///   --telemetry-csv / --trace-out / --trace-jsonl write the telemetry
///   rows, Chrome trace-event JSON and diffable JSONL of the tasks whose
///   specs enable telemetry_window / trace_sample. Separate artefacts:
///   the --csv result file is byte-identical with or without them.
///   --progress prints a stderr heartbeat (done/total + ETA) per task.
///   MANIFEST "-" reads the manifest from stdin, so a driver can pipe:
///     fig06_random_faults --emit-tasks | hxsp_runner - --csv=out.csv
///   --csv is both output and checkpoint: completed task ids are skipped
///   on restart and new rows appended, so killing the process at any
///   point loses at most the task in flight. The final file is
///   byte-identical to an uninterrupted run.
///
/// Merge mode:
///   hxsp_runner --merge=out.csv shard0.csv shard1.csv...
///   Concatenates the shard records and stable-sorts them by task id,
///   recovering exactly the uninterrupted single-process output. A task
///   id on record twice (overlapping shards, a file given twice) aborts
///   the merge.

#include <ctime>

#include <cstdio>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "util/check.hpp"
#include "util/options.hpp"

using namespace hxsp;

namespace {

// Monotonic wall clock for the --progress ETA. Lives in the tool, not
// the library: the deterministic core takes it as an injected function
// pointer and never calls timing APIs itself.
double monotonic_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string read_stdin() {
  std::string content;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, stdin)) > 0) content.append(buf, n);
  return content;
}

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s MANIFEST.json|- [--shard=i/n] [--jobs=N] "
               "[--step-threads=N] [--csv=F] [--quiet] "
               "[--progress]\n"
               "          [--telemetry-csv=F] [--trace-out=F] "
               "[--trace-jsonl=F]\n"
               "       %s --merge=out.csv shard.csv...\n",
               prog, prog);
  return 2;
}

int run_merge(const Options& opt) {
  const std::string out_csv = opt.get("merge", "");
  const auto& inputs = opt.positional();
  opt.warn_unknown();
  if (inputs.empty()) return usage(opt.program().c_str());

  std::vector<std::vector<ResultRecord>> parts;
  for (const std::string& path : inputs)
    parts.push_back(ResultSink::parse_csv(read_file_or_die(path)));
  const std::vector<ResultRecord> merged = ResultSink::merge(parts);

  HXSP_CHECK_MSG(write_whole_file(out_csv, ResultSink::csv(merged)),
                 "cannot write merge output");
  std::printf("merged %zu records from %zu shard files into %s\n",
              merged.size(), inputs.size(), out_csv.c_str());
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  if (opt.has("merge")) return run_merge(opt);

  RunnerOptions ropts;
  ropts.jobs = opt.get_int_as<int>("jobs", 0);
  ropts.step_threads = opt.get_int_as<int>("step-threads", 0);
  ropts.shard = ShardSpec::parse(opt.get("shard", "0/1"));
  ropts.csv_path = opt.get("csv", "");
  ropts.quiet = opt.get_bool("quiet", false);
  ropts.telemetry_csv_path = opt.get("telemetry-csv", "");
  ropts.trace_json_path = opt.get("trace-out", "");
  ropts.trace_jsonl_path = opt.get("trace-jsonl", "");
  ropts.progress = opt.get_bool("progress", false);
  if (ropts.progress) ropts.now_seconds = &monotonic_seconds;
  opt.warn_unknown();

  if (opt.positional().size() != 1) return usage(opt.program().c_str());
  const std::string& manifest_path = opt.positional()[0];
  const std::string manifest_text =
      manifest_path == "-" ? read_stdin() : read_file_or_die(manifest_path);
  const std::vector<TaskSpec> tasks = manifest_from_json(manifest_text);

  const RunnerReport report = run_manifest(tasks, ropts);
  std::printf(
      "hxsp_runner: %zu manifest tasks, %zu in shard %d/%d, "
      "%zu resumed from checkpoint, %zu executed, %zu records\n",
      report.manifest_tasks, report.shard_tasks, ropts.shard.index,
      ropts.shard.count, report.resumed, report.executed,
      report.records.size());
  return 0;
}
