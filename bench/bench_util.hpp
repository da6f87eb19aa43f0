#pragma once
/// \file bench_util.hpp
/// Shared plumbing for the figure/table reproduction benches: the common
/// CLI option block (CommonOptions), standard header banner, uniform
/// result persistence (--csv/--json through ResultSink), the TaskGrid
/// emit/shard/run plumbing every simulation driver routes through, and
/// the mechanism/pattern grids the paper's evaluation sweeps over.
///
/// Option-handling contract every driver follows: read *all*
/// driver-specific options first (spec_from_options, custom keys), then
/// construct CommonOptions — it registers the shared keys and calls
/// warn_unknown(), so typo'd flags are reported before any long-running
/// work. Build the TaskGrid next and check maybe_emit_tasks() BEFORE
/// printing anything: --emit-tasks without a file writes the manifest to
/// stdout, which must stay pure JSON for piping into hxsp_runner.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/grid.hpp"
#include "util/fileio.hpp"
#include "harness/presets.hpp"
#include "harness/sweep.hpp"
#include "metrics/resultsink.hpp"
#include "topology/faults.hpp"
#include "util/table.hpp"

namespace hxsp::bench {

/// The option block shared by every driver and example: --jobs=N worker
/// count (0 = hardware concurrency, 1 = serial), --step-threads=N
/// deterministic intra-run step-pool workers per simulation (0 = serial
/// stepping; any value is bit-identical), --shard=i/n grid slice,
/// --emit-tasks[=file] manifest emission, plus registration of the
/// --csv/--json/--seed keys so warn_unknown() (called here, last) knows
/// them. Construct AFTER all driver-specific option reads.
///
/// In-process runs (run_grid) keep no telemetry capture, so
/// --telemetry-window/--trace-sample there only cost stepping time; a
/// note on stderr points to the --emit-tasks | hxsp_runner workflow,
/// which writes the telemetry and trace artefacts.
struct CommonOptions {
  int jobs = 0;
  int step_threads = 0;
  ShardSpec shard;
  bool emit_tasks = false;
  std::string emit_path;  ///< "" = stdout

  explicit CommonOptions(const Options& opt) {
    opt.has("csv");
    opt.has("json");
    opt.has("seed");
    jobs = static_cast<int>(opt.get_int("jobs", 0));
    step_threads = static_cast<int>(opt.get_int("step-threads", 0));
    shard = ShardSpec::parse(opt.get("shard", "0/1"));
    emit_tasks = opt.has("emit-tasks");
    emit_path = opt.get("emit-tasks", "");
    if (emit_path == "1") emit_path.clear();  // bare flag / --emit-tasks=1
    const bool observed = opt.get_int("telemetry-window", 0) > 0 ||
                          opt.get_int("trace-sample", 0) > 0;
    if (observed && !emit_tasks)
      std::fprintf(stderr,
                   "note: --telemetry-window/--trace-sample record nothing "
                   "in an in-process run; write the grid with --emit-tasks "
                   "and run it with hxsp_runner --telemetry-csv, --trace-out "
                   "or --trace-jsonl\n");
    opt.warn_unknown();
  }
};

/// Honours --emit-tasks: writes \p grid's manifest (to stdout when no
/// file was given — keep stdout clean until this check!) and returns
/// true, meaning the driver must exit without simulating. A failed
/// manifest write exits the process non-zero so `driver --emit-tasks=F
/// && hxsp_runner F` pipelines cannot proceed on a stale or missing
/// manifest.
inline bool maybe_emit_tasks(const CommonOptions& common, const TaskGrid& grid) {
  if (!common.emit_tasks) return false;
  const std::string manifest = grid.manifest_json();
  if (common.emit_path.empty()) {
    const std::size_t n =
        std::fwrite(manifest.data(), 1, manifest.size(), stdout);
    if (n != manifest.size() || std::fflush(stdout) != 0) {
      std::fprintf(stderr, "could not write manifest to stdout\n");
      std::exit(1);
    }
  } else if (write_whole_file(common.emit_path, manifest)) {
    std::printf("(wrote %s: %zu tasks)\n", common.emit_path.c_str(),
                grid.size());
  } else {
    std::fprintf(stderr, "could not write %s\n", common.emit_path.c_str());
    std::exit(1);
  }
  return true;
}

/// Prints a notice when distribution flags were given to a program with
/// no task grid to distribute (the examples): the flags parse everywhere
/// for CLI uniformity, but silently ignoring them would hide a typo'd
/// intent.
inline void warn_unused_distribution(const CommonOptions& common,
                                     const char* what) {
  if (common.emit_tasks || !common.shard.is_full())
    std::fprintf(stderr,
                 "note: --emit-tasks/--shard have no effect in %s "
                 "(single-run example)\n",
                 what);
}

/// Runs the --shard slice of \p grid through a ParallelSweep, appending
/// every (task, result) to \p sink and forwarding each to \p on_result
/// with the task's ORIGINAL grid index, so per-cell console context keeps
/// working. In an unsharded run this is exactly the old in-process fast
/// path: submission-order delivery, bit-identical at any worker count.
/// Under --shard the sink receives only this slice's rows (merge shard
/// outputs with hxsp_runner --merge); console output that reads sibling
/// cells (healthy references, grid headers) is best-effort then.
inline void run_grid(
    const TaskGrid& grid, const CommonOptions& common, ResultSink& sink,
    const std::function<void(std::size_t, const TaskSpec&, const TaskResult&)>&
        on_result = {}) {
  const std::vector<std::size_t> picked =
      shard_indices(grid.size(), common.shard);
  ParallelSweep sweep(common.jobs);
  sweep.map<TaskResult>(
      picked.size(),
      [&](std::size_t i) { return run_task(grid[picked[i]], common.step_threads); },
      [&](std::size_t i, const TaskResult& result) {
        sink.add(grid[picked[i]], result);
        if (on_result) on_result(picked[i], grid[picked[i]], result);
      });
}

/// Prints the standard bench banner: what paper artefact this reproduces,
/// at which scale, with which simulation parameters.
inline void banner(const std::string& what, const ExperimentSpec& spec) {
  std::string sides;
  for (std::size_t i = 0; i < spec.sides.size(); ++i) {
    if (i) sides += "x";
    sides += std::to_string(spec.sides[i]);
  }
  std::printf("==============================================================\n");
  std::printf("%s\n", what.c_str());
  std::printf("Topology: HyperX %s | VCs: %d | warmup %ld, measure %ld cycles\n",
              sides.c_str(), spec.sim.num_vcs, static_cast<long>(spec.warmup),
              static_cast<long>(spec.measure));
  std::printf("%s\n", describe_sim_parameters(spec.sim).c_str());
  std::printf("==============================================================\n");
}

/// Persists \p sink when --csv / --json were passed (bare flag or =1
/// selects <stem>.csv / <stem>.json, any other value is the file name)
/// and says so. Every driver emits the same ResultSink schema.
inline void persist(const Options& opt, const ResultSink& sink,
                    const std::string& stem) {
  struct Format {
    const char* key;
    const char* ext;
    bool (ResultSink::*write)(const std::string&) const;
  };
  const Format formats[] = {{"csv", ".csv", &ResultSink::write_csv},
                            {"json", ".json", &ResultSink::write_json}};
  for (const Format& f : formats) {
    if (!opt.has(f.key)) continue;
    const std::string v = opt.get(f.key, "");
    const std::string file = (v.empty() || v == "1") ? stem + f.ext : v;
    if ((sink.*f.write)(file))
      std::printf("(wrote %s: %zu records)\n", file.c_str(), sink.size());
    else
      std::fprintf(stderr, "could not write %s\n", file.c_str());
  }
}

/// The six mechanisms of the paper's fault-free comparison (Table 4).
inline std::vector<std::string> paper_mechanisms() {
  return {"minimal", "valiant", "omniwar", "polarized", "omnisp", "polsp"};
}

/// The SurePath configurations of the fault studies (§6).
inline std::vector<std::string> surepath_mechanisms() {
  return {"omnisp", "polsp"};
}

/// Patterns of the 2D evaluation (Fig 4).
inline std::vector<std::string> patterns_2d() { return {"uniform", "rsp", "dcr"}; }

/// Patterns of the 3D evaluation (Fig 5).
inline std::vector<std::string> patterns_3d() {
  return {"uniform", "rsp", "dcr", "rpn"};
}

/// Default load sweep for bench runs: coarse by default, the paper's grid
/// with --paper, overridable with --loads=...
inline std::vector<double> load_sweep(const Options& opt, bool paper) {
  const std::vector<double> dflt =
      paper ? default_loads(true)
            : std::vector<double>{0.2, 0.4, 0.6, 0.8, 0.9, 1.0};
  return opt.get_double_list("loads", dflt);
}

/// Shrinks the default cycle counts for multi-hundred-point sweeps so the
/// whole bench suite stays minutes-scale on one core (--paper restores the
/// preset's full counts; --warmup/--measure always win).
inline void quick_cycles(const Options& opt, bool paper, ExperimentSpec& spec) {
  if (paper) return;
  spec.warmup = opt.get_int("warmup", 1500);
  spec.measure = opt.get_int("measure", 3000);
}

/// The fig04/fig05 fault-free grid: every (pattern, mechanism, load) cell
/// as an independent TaskSpec in canonical order, plus the cell context
/// the console callback needs to reproduce the serial layout.
struct LoadGrid {
  TaskGrid grid;
  struct Cell {
    std::size_t pattern, mech, load;
  };
  std::vector<Cell> cells;  ///< cells[i] describes grid task i
  std::vector<std::string> patterns, mechs;
  std::vector<double> loads;
};

inline LoadGrid build_load_grid(const std::string& driver,
                                const ExperimentSpec& base,
                                const std::vector<std::string>& patterns,
                                const std::vector<std::string>& mechs,
                                const std::vector<double>& loads) {
  LoadGrid lg{TaskGrid(driver), {}, patterns, mechs, loads};
  for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
    for (std::size_t mi = 0; mi < mechs.size(); ++mi) {
      ExperimentSpec s = base;
      s.mechanism = mechs[mi];
      s.pattern = patterns[pi];
      for (std::size_t li = 0; li < loads.size(); ++li) {
        lg.grid.add(TaskSpec::rate(s, loads[li]));
        lg.cells.push_back({pi, mi, li});
      }
    }
  }
  return lg;
}

/// Runs a LoadGrid, reproducing the serial console layout (per-pattern
/// header, one mech row of accepted values across the load sweep) byte
/// for byte at any worker count. Each cell is appended to \p t and
/// \p sink.
inline void run_load_grid(const LoadGrid& lg, const CommonOptions& common,
                          Table& t, ResultSink& sink) {
  run_grid(lg.grid, common, sink,
           [&](std::size_t gi, const TaskSpec&, const TaskResult& result) {
    const LoadGrid::Cell& c = lg.cells[gi];
    const ResultRow& r = *task_result_row(result);
    if (c.mech == 0 && c.load == 0) {
      std::printf("\n--- pattern: %s ---\n", lg.patterns[c.pattern].c_str());
      std::printf("%-10s", "mech\\load");
      for (double l : lg.loads) std::printf(" %9.2f", l);
      std::printf("\n");
    }
    if (c.load == 0)
      std::printf("%-10s", mechanism_display_name(lg.mechs[c.mech]).c_str());
    std::printf(" %9.3f", r.accepted);
    t.row().cell(lg.patterns[c.pattern]).cell(r.mechanism).cell(r.offered, 2)
        .cell(r.accepted, 4).cell(r.avg_latency, 1).cell(r.jain, 4)
        .cell(r.escape_frac, 4);
    if (c.load + 1 == lg.loads.size()) {
      std::printf("  (accepted)\n");
      std::fflush(stdout);
    }
  });
}

/// A named fault region of the Fig 7–9 shape studies.
struct ShapeDef {
  const char* name;
  ShapeFault fault;
};

/// The fig08/fig09 shape grid: for every (mechanism, pattern) pair a
/// healthy reference plus every shape, in canonical order. Healthy tasks
/// precede their pair's shape tasks, so the submission-order delivery of
/// an unsharded run hands each shape row its healthy throughput ("top
/// marks") just before it — do not reorder the expansion without also
/// buffering the references.
struct ShapeGrid {
  TaskGrid grid;
  struct Cell {
    int shape = -1;  ///< index into shapes; -1 = healthy reference
    std::string pattern;
  };
  std::vector<Cell> cells;
  std::vector<ShapeDef> shapes;
};

inline ShapeGrid build_shape_grid(const std::string& driver,
                                  const ExperimentSpec& base,
                                  const std::vector<ShapeDef>& shapes,
                                  const std::vector<std::string>& patterns) {
  ShapeGrid sg{TaskGrid(driver), {}, shapes};
  for (const auto& mech : surepath_mechanisms()) {
    for (const auto& pattern : patterns) {
      ExperimentSpec h = base;
      h.mechanism = mech;
      h.pattern = pattern;
      TaskSpec healthy = TaskSpec::rate(h, 1.0);
      healthy.label = "healthy";
      healthy.extra = "faults=0";
      sg.grid.add(std::move(healthy));
      sg.cells.push_back({-1, pattern});
      for (std::size_t sh = 0; sh < shapes.size(); ++sh) {
        ExperimentSpec s = h;
        s.fault_links = shapes[sh].fault.links;
        s.escape_root = shapes[sh].fault.suggested_root;
        TaskSpec task = TaskSpec::rate(s, 1.0);
        task.label = shapes[sh].name;
        task.extra = "faults=" + std::to_string(shapes[sh].fault.links.size());
        sg.grid.add(std::move(task));
        sg.cells.push_back({static_cast<int>(sh), pattern});
      }
    }
  }
  return sg;
}

/// Runs a ShapeGrid, printing one row per shape run (shape name padded to
/// \p name_width) with its degradation against the most recent healthy
/// reference, and appending every run to \p sink. The healthy /
/// degradation comparison is console context only — persisted records
/// carry task-local fields, so shard outputs merge cleanly; the plotting
/// pipeline recomputes degradation from the healthy rows.
inline void run_shape_grid(const ShapeGrid& sg, const CommonOptions& common,
                           int name_width, ResultSink& sink) {
  double healthy = 0.0;  // most recent healthy reference
  run_grid(sg.grid, common, sink,
           [&](std::size_t gi, const TaskSpec&, const TaskResult& result) {
    const ShapeGrid::Cell& c = sg.cells[gi];
    const ResultRow& r = *task_result_row(result);
    if (c.shape < 0) {
      healthy = r.accepted;
      return;
    }
    const ShapeDef& shape = sg.shapes[static_cast<std::size_t>(c.shape)];
    const double deg = healthy > 0 ? 1.0 - r.accepted / healthy : 0.0;
    std::printf("%-*s %-8s %-10s faults=%-4zu acc=%.3f healthy=%.3f "
                "degradation=%4.1f%% esc=%.3f\n",
                name_width, shape.name, c.pattern.c_str(), r.mechanism.c_str(),
                shape.fault.links.size(), r.accepted, healthy, 100 * deg,
                r.escape_frac);
    std::fflush(stdout);
  });
}

} // namespace hxsp::bench
