/// \file ablation_penalties.cpp
/// Ablation: sensitivity of SurePath to the escape penalty values.
/// The paper (§3) states the penalties "have been chosen experimentally"
/// but that "there are large regions of similar performance, so the
/// specific values have little importance". This bench scales the escape
/// penalty vector (112/96/80/64/48) by several factors and measures
/// saturation throughput, fault-free and under a Cross fault.
///
/// The (scale, mechanism, scenario) grid is a TaskGrid: run in-process
/// (--jobs=N, bit-identical at any worker count) or emitted
/// (--emit-tasks) for hxsp_runner.
///
/// Usage: ablation_penalties [--paper] [--csv[=file]] [--seed=N]
///                           [--jobs=N] [--emit-tasks[=file]]

#include "bench_util.hpp"
#include "topology/faults.hpp"

using namespace hxsp;

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const bool paper = opt.get_bool("paper", false);
  ExperimentSpec base = spec_from_options(opt, 2);
  bench::quick_cycles(opt, paper, base);
  const bench::CommonOptions common(opt);

  const int side = base.sides[0];
  HyperX scratch(base.sides, base.resolved_servers_per_switch());
  const SwitchId center = scratch.switch_at({side / 3, side / 3});
  const ShapeFault cross = star_fault(scratch, center, std::max(3, side * 11 / 16));

  struct Cell {
    double scale;
    bool faulty;
  };
  TaskGrid grid("ablation_penalties");
  std::vector<Cell> cells;
  for (double scale : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    EscapePenalties pen;
    pen.up = static_cast<int>(112 * scale);
    pen.down = static_cast<int>(96 * scale);
    pen.red1 = static_cast<int>(80 * scale);
    pen.red2 = static_cast<int>(64 * scale);
    pen.red3 = static_cast<int>(48 * scale);
    for (const auto& mech : bench::surepath_mechanisms()) {
      for (int faulty = 0; faulty <= 1; ++faulty) {
        ExperimentSpec s = base;
        s.mechanism = mech;
        s.pattern = "uniform";
        s.escape_penalties = pen;
        if (faulty) {
          s.fault_links = cross.links;
          s.escape_root = center;
        }
        TaskSpec task = TaskSpec::rate(s, 1.0);
        task.label = faulty ? "cross-fault" : "fault-free";
        task.extra = "scale=" + format_double(scale, 2);
        grid.add(std::move(task));
        cells.push_back({scale, faulty != 0});
      }
    }
  }
  if (bench::maybe_emit_tasks(common, grid)) return 0;

  bench::banner("Ablation — escape penalty scaling (paper: 'large regions of "
                "similar performance')",
                base);

  ResultSink sink("ablation_penalties");
  bench::run_grid(grid, common, sink,
                  [&](std::size_t gi, const TaskSpec&, const TaskResult& result) {
    const Cell& c = cells[gi];
    const ResultRow& r = *task_result_row(result);
    const char* scenario = c.faulty ? "cross-fault" : "fault-free";
    std::printf("scale=%.2f %-8s %-11s acc=%.3f esc=%.3f\n", c.scale,
                r.mechanism.c_str(), scenario, r.accepted, r.escape_frac);
    std::fflush(stdout);
  });
  bench::persist(opt, sink, "ablation_penalties");
  return 0;
}
