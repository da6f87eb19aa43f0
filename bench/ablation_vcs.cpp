/// \file ablation_vcs.cpp
/// Ablation: SurePath VC budget. The paper claims SurePath is correct with
/// just 2 VCs (1 routing + 1 escape) and that extra VCs buy performance,
/// enabling a 33% VC cost reduction versus 6-VC ladders on 3D HyperX
/// (§3.1.2, §6). This bench sweeps the VC count for OmniSP/PolSP and the
/// ladder baselines on the 3D topology.
///
/// The (vcs, mechanism, pattern) grid is a TaskGrid: run in-process
/// (--jobs=N, default hardware concurrency, bit-identical at any worker
/// count) or emitted (--emit-tasks) for hxsp_runner.
///
/// Usage: ablation_vcs [--paper] [--csv[=file]] [--seed=N] [--jobs=N]
///                     [--emit-tasks[=file]]

#include "bench_util.hpp"

using namespace hxsp;

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const bool paper = opt.get_bool("paper", false);
  ExperimentSpec base = spec_from_options(opt, 3);
  bench::quick_cycles(opt, paper, base);
  const bench::CommonOptions common(opt);

  // Every (vcs, mechanism, pattern) cell is independent.
  struct Cell {
    int vcs;
    std::string pattern;
  };
  TaskGrid grid("ablation_vcs");
  std::vector<Cell> cells;
  for (int vcs : {2, 3, 4, 6}) {
    for (const auto& mech :
         {std::string("omnisp"), std::string("polsp"), std::string("omniwar"),
          std::string("polarized")}) {
      // Ladders below their full rung count are unsafe under faults and
      // pointless here; the paper's point is exactly that SurePath is not.
      if ((mech == "omniwar" || mech == "polarized") && vcs < 6) continue;
      for (const auto& pattern : {std::string("uniform"), std::string("rpn")}) {
        ExperimentSpec s = base;
        s.sim.num_vcs = vcs;
        s.mechanism = mech;
        s.pattern = pattern;
        TaskSpec task = TaskSpec::rate(s, 1.0);
        task.extra = "vcs=" + std::to_string(vcs);
        grid.add(std::move(task));
        cells.push_back({vcs, pattern});
      }
    }
  }
  if (bench::maybe_emit_tasks(common, grid)) return 0;

  bench::banner("Ablation — VC budget: SurePath works from 2 VCs; ladders "
                "need 2n",
                base);

  ResultSink sink("ablation_vcs");
  bench::run_grid(grid, common, sink,
                  [&](std::size_t gi, const TaskSpec&, const TaskResult& result) {
    const Cell& c = cells[gi];
    const ResultRow& r = *task_result_row(result);
    std::printf("vcs=%d %-10s %-8s acc=%.3f esc=%.3f\n", c.vcs,
                r.mechanism.c_str(), c.pattern.c_str(), r.accepted,
                r.escape_frac);
    std::fflush(stdout);
  });
  std::printf("\nExpectation: OmniSP/PolSP at 4 VCs match or beat the 6-VC\n"
              "ladders, and remain functional even at 2 VCs.\n");
  bench::persist(opt, sink, "ablation_vcs");
  return 0;
}
