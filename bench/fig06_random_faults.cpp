/// \file fig06_random_faults.cpp
/// Reproduces paper Figure 6: saturation throughput of OmniSP and PolSP
/// under a growing sequence of random link faults, on 2D and 3D HyperX,
/// for every traffic pattern. SurePath uses 4 VCs here (3 routing + 1
/// escape) exactly as in the paper's fault experiments.
///
/// The fault counts are a prefix sequence: fault set at step i+1 contains
/// the set at step i, like the paper's cumulative experiment. At reduced
/// scale the counts are scaled to keep the same *fraction* of faulty
/// links; --paper uses 0..100 step 10 on the paper topologies.
///
/// The grid's cells are independent TaskSpecs: run in-process across a
/// ParallelSweep pool (--jobs=N, default hardware concurrency, output
/// bit-identical whatever the worker count) or emitted as a manifest
/// (--emit-tasks) for hxsp_runner — this is the driver the CI shard job
/// exercises end to end.
///
/// Usage: fig06_random_faults [--paper] [--dims=2|3|0 (both)]
///                            [--max-faults=N] [--steps=N] [--seed=N]
///                            [--jobs=N] [--emit-tasks[=file]]
///                            [--csv[=file]]

#include "bench_util.hpp"
#include "topology/faults.hpp"

using namespace hxsp;

namespace {

/// Console context of one grid task.
struct Cell {
  int dims = 0;
  int faults = 0;
  std::string pattern;
  bool dim_header = false;  ///< first cell of its dimension
  int links = 0;            ///< printed in the dimension header
  int max_faults = 0;
};

void build_dim(int dims, ExperimentSpec base, bool paper, long max_faults_opt,
               int steps, TaskGrid& grid, std::vector<Cell>& cells) {
  // Build the shared fault sequence on a scratch topology.
  HyperX scratch(base.sides, base.resolved_servers_per_switch());
  Rng frng(base.seed + 1000);
  const auto seq = random_fault_sequence(scratch.graph(), frng);

  // Paper: 0..100 faults step 10 (2.6% of 2D links, 1.9% of 3D links).
  // Reduced: same fraction of this topology's links, 10 steps.
  const int max_faults = static_cast<int>(
      max_faults_opt >= 0
          ? max_faults_opt
          : (paper ? 100
                   : std::max(10, scratch.graph().num_links() * 100 / 3840)));

  const auto patterns = dims == 3 ? bench::patterns_3d() : bench::patterns_2d();
  bool first = true;
  for (int step = 0; step <= steps; ++step) {
    const int faults = max_faults * step / steps;
    ExperimentSpec s = base;
    s.fault_links.assign(seq.begin(), seq.begin() + faults);
    for (const auto& mech : bench::surepath_mechanisms()) {
      for (const auto& pattern : patterns) {
        s.mechanism = mech;
        s.pattern = pattern;
        TaskSpec task = TaskSpec::rate(s, 1.0);
        task.extra = "dims=" + std::to_string(dims) +
                     ";faults=" + std::to_string(faults);
        grid.add(std::move(task));
        Cell c;
        c.dims = dims;
        c.faults = faults;
        c.pattern = pattern;
        c.dim_header = first;
        c.links = scratch.graph().num_links();
        c.max_faults = max_faults;
        cells.push_back(std::move(c));
        first = false;
      }
    }
  }
}

} // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const bool paper = opt.get_bool("paper", false);
  const int dims = opt.get_int_as<int>("dims", 0);
  const long max_faults_opt = opt.get_int("max-faults", -1);
  const int steps = opt.get_int_as<int>("steps", 10);
  const int vcs = opt.get_int_as<int>("vcs", 4); // paper §6: 4 VCs
  ExperimentSpec base2 = spec_from_options(opt, 2);
  ExperimentSpec base3 = spec_from_options(opt, 3);
  bench::quick_cycles(opt, paper, base2);
  bench::quick_cycles(opt, paper, base3);
  base2.sim.num_vcs = base3.sim.num_vcs = vcs;
  const bench::CommonOptions common(opt);

  TaskGrid grid("fig06_random_faults");
  std::vector<Cell> cells;
  if (dims == 0 || dims == 2)
    build_dim(2, base2, paper, max_faults_opt, steps, grid, cells);
  if (dims == 0 || dims == 3)
    build_dim(3, base3, paper, max_faults_opt, steps, grid, cells);
  if (bench::maybe_emit_tasks(common, grid)) return 0;

  std::printf("Figure 6 — Throughput for successive random failures "
              "(OmniSP/PolSP, offered load 1.0)\n");
  std::printf("Paper shape: smooth degradation; Uniform drops roughly 0.9 to "
              "0.8 over the sweep, other patterns barely move.\n");

  ResultSink sink("fig06_random_faults");
  bench::run_grid(grid, common, sink,
                  [&](std::size_t gi, const TaskSpec&, const TaskResult& result) {
    const Cell& c = cells[gi];
    const ResultRow& r = *task_result_row(result);
    if (c.dim_header) {
      std::printf("\n=== %dD HyperX (%d links, faults 0..%d) ===\n", c.dims,
                  c.links, c.max_faults);
      std::printf("%-8s %-26s", "faults", "mech/pattern:");
      std::printf(" accepted load at offered 1.0\n");
    }
    std::printf("%-8d %-10s %-14s acc=%.3f esc=%.3f forced=%.4f\n", c.faults,
                r.mechanism.c_str(), c.pattern.c_str(), r.accepted,
                r.escape_frac, r.forced_frac);
    std::fflush(stdout);
  });
  bench::persist(opt, sink, "fig06_random_faults");
  return 0;
}
