/// \file ablation_shortcuts.cpp
/// Ablation: opportunistic shortcuts on/off. The paper's §3.2 argues that
/// a plain Up*/Down* spanning-tree escape "effectively replaces a deadlock
/// into the marginal throughput of a tree", and that adding the red
/// horizontal shortcuts is what lets the escape carry real load (one of
/// the paper's original contributions). This bench compares both escapes.
///
/// The (shortcuts, mechanism, scenario) grid is a TaskGrid: run
/// in-process (--jobs=N, bit-identical at any worker count) or emitted
/// (--emit-tasks) for hxsp_runner.
///
/// Usage: ablation_shortcuts [--paper] [--csv[=file]] [--seed=N]
///                           [--jobs=N] [--emit-tasks[=file]]

#include "bench_util.hpp"
#include "topology/faults.hpp"

using namespace hxsp;

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const bool paper = opt.get_bool("paper", false);
  ExperimentSpec base = spec_from_options(opt, 2);
  bench::quick_cycles(opt, paper, base);
  base.sim.num_vcs = opt.get_int_as<int>("vcs", 4);
  const bench::CommonOptions common(opt);

  const int side = base.sides[0];
  HyperX scratch(base.sides, base.resolved_servers_per_switch());
  const SwitchId center = scratch.switch_at({side / 3, side / 3});
  const ShapeFault cross = star_fault(scratch, center, std::max(3, side * 11 / 16));

  struct Cell {
    bool shortcuts;
    bool faulty;
  };
  TaskGrid grid("ablation_shortcuts");
  std::vector<Cell> cells;
  for (bool shortcuts : {true, false}) {
    for (const auto& mech : bench::surepath_mechanisms()) {
      for (int faulty = 0; faulty <= 1; ++faulty) {
        ExperimentSpec s = base;
        s.mechanism = mech;
        s.pattern = "uniform";
        s.escape_shortcuts = shortcuts;
        if (faulty) {
          s.fault_links = cross.links;
          s.escape_root = center;
        }
        TaskSpec task = TaskSpec::rate(s, 1.0);
        task.label = faulty ? "cross-fault" : "fault-free";
        task.extra = std::string("shortcuts=") + (shortcuts ? "on" : "off");
        grid.add(std::move(task));
        cells.push_back({shortcuts, faulty != 0});
      }
    }
  }
  if (bench::maybe_emit_tasks(common, grid)) return 0;

  bench::banner("Ablation — escape with vs without opportunistic shortcuts",
                base);

  ResultSink sink("ablation_shortcuts");
  bench::run_grid(grid, common, sink,
                  [&](std::size_t gi, const TaskSpec&, const TaskResult& result) {
    const Cell& c = cells[gi];
    const ResultRow& r = *task_result_row(result);
    const char* scenario = c.faulty ? "cross-fault" : "fault-free";
    std::printf("shortcuts=%d %-8s %-11s acc=%.3f esc=%.3f forced=%.4f\n",
                static_cast<int>(c.shortcuts), r.mechanism.c_str(), scenario,
                r.accepted, r.escape_frac, r.forced_frac);
    std::fflush(stdout);
  });
  std::printf("\nExpectation: disabling shortcuts hurts most under faults,\n"
              "where the escape must carry forced traffic through the tree.\n");
  bench::persist(opt, sink, "ablation_shortcuts");
  return 0;
}
