/// \file ablation_root.cpp
/// Ablation: escape-root placement. The paper's §6 conclusion suggests
/// "avoiding to choose a switch with many faulty links as the root".
/// This bench measures saturation throughput with the root inside the
/// faulted Star center (the paper's stress setup), adjacent to it, and in
/// the opposite corner of the network.
///
/// The (root, mechanism, pattern) grid is a TaskGrid: run in-process
/// (--jobs=N, bit-identical at any worker count) or emitted
/// (--emit-tasks) for hxsp_runner.
///
/// Usage: ablation_root [--paper] [--csv[=file]] [--seed=N] [--jobs=N]
///                      [--emit-tasks[=file]]

#include "bench_util.hpp"
#include "topology/faults.hpp"

using namespace hxsp;

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const bool paper = opt.get_bool("paper", false);
  ExperimentSpec base = spec_from_options(opt, 3);
  bench::quick_cycles(opt, paper, base);
  base.sim.num_vcs = opt.get_int_as<int>("vcs", 4);
  const bench::CommonOptions common(opt);

  const int side = base.sides[0];
  HyperX scratch(base.sides, base.resolved_servers_per_switch());
  const SwitchId center = scratch.switch_at(std::vector<int>(3, side / 2));
  const ShapeFault star = star_fault(scratch, center, std::max(2, side - 1));

  struct RootChoice {
    const char* name;
    SwitchId root;
  };
  std::vector<int> adj_coords(3, side / 2);
  adj_coords[0] = (side / 2 + 1) % side;
  const std::vector<RootChoice> roots = {
      {"fault-center", center},
      {"adjacent", scratch.switch_at(adj_coords)},
      {"far-corner", scratch.switch_at({0, 0, 0})},
  };

  struct Cell {
    std::size_t root;
    std::string pattern;
  };
  TaskGrid grid("ablation_root");
  std::vector<Cell> cells;
  for (std::size_t ri = 0; ri < roots.size(); ++ri) {
    for (const auto& mech : bench::surepath_mechanisms()) {
      for (const auto& pattern : {std::string("uniform"), std::string("rpn")}) {
        ExperimentSpec s = base;
        s.mechanism = mech;
        s.pattern = pattern;
        s.fault_links = star.links;
        s.escape_root = roots[ri].root;
        TaskSpec task = TaskSpec::rate(s, 1.0);
        task.label = roots[ri].name;
        task.extra = "root_switch=" + std::to_string(roots[ri].root);
        grid.add(std::move(task));
        cells.push_back({ri, pattern});
      }
    }
  }
  if (bench::maybe_emit_tasks(common, grid)) return 0;

  bench::banner("Ablation — escape root placement under Star faults", base);

  ResultSink sink("ablation_root");
  bench::run_grid(grid, common, sink,
                  [&](std::size_t gi, const TaskSpec&, const TaskResult& result) {
    const Cell& c = cells[gi];
    const RootChoice& rc = roots[c.root];
    const ResultRow& r = *task_result_row(result);
    std::printf("root=%-12s %-8s %-8s acc=%.3f esc=%.3f\n", rc.name,
                r.mechanism.c_str(), c.pattern.c_str(), r.accepted,
                r.escape_frac);
    std::fflush(stdout);
  });
  std::printf("\nExpectation: moving the root away from the heavily faulted\n"
              "switch recovers throughput (paper §6, last paragraph).\n");
  bench::persist(opt, sink, "ablation_root");
  return 0;
}
