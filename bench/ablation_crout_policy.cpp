/// \file ablation_crout_policy.cpp
/// Ablation: CRout VC discipline inside SurePath. Table 4 keeps each base
/// routing's own VC convention; this bench measures why: Omnidimensional's
/// short bounded routes thrive on free VC choice, while Polarized's long
/// exploratory routes need the hop-ladder rung to avoid cyclic buffer
/// waits that drain only at escape speed. The grid below is the evidence.
///
/// Every (base, policy) combination is an ordinary spec mechanism thanks
/// to the factory's "@policy" suffix ("omnisp@rung", "polsp@free", ...),
/// so the grid is a plain TaskGrid: run in-process (--jobs=N,
/// bit-identical at any worker count) or emitted (--emit-tasks) for
/// hxsp_runner.
///
/// Usage: ablation_crout_policy [--paper] [--csv[=file]] [--seed=N]
///                              [--jobs=N] [--emit-tasks[=file]]

#include "bench_util.hpp"

using namespace hxsp;

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const bool paper = opt.get_bool("paper", false);
  ExperimentSpec base = spec_from_options(opt, 2);
  bench::quick_cycles(opt, paper, base);
  const bench::CommonOptions common(opt);

  struct Cell {
    const char* base;
    const char* policy;
  };
  TaskGrid grid("ablation_crout_policy");
  std::vector<Cell> cells;
  for (const Cell proto : {Cell{"omnisp", nullptr}, Cell{"polsp", nullptr}}) {
    for (const char* policy : {"free", "monotone", "rung"}) {
      ExperimentSpec s = base;
      s.mechanism = std::string(proto.base) + "@" + policy;
      s.pattern = "uniform";
      TaskSpec task = TaskSpec::rate(s, 1.0);
      task.label = policy;
      task.extra = std::string("policy=") + policy;
      grid.add(std::move(task));
      cells.push_back({proto.base, policy});
    }
  }
  if (bench::maybe_emit_tasks(common, grid)) return 0;

  bench::banner("Ablation — SurePath CRout VC policy x base routing "
                "(saturation, uniform)",
                base);

  ResultSink sink("ablation_crout_policy");
  bench::run_grid(grid, common, sink,
                  [&](std::size_t gi, const TaskSpec&, const TaskResult& result) {
    const Cell& c = cells[gi];
    const ResultRow& r = *task_result_row(result);
    std::printf("base=%-7s policy=%-9s acc=%.3f gen=%.3f esc=%.3f\n", c.base,
                c.policy, r.accepted, r.generated, r.escape_frac);
    std::fflush(stdout);
  });
  std::printf("\nShipped defaults: OmniSP = free, PolSP = rung (the best cell\n"
              "of each row).\n");
  bench::persist(opt, sink, "ablation_crout_policy");
  return 0;
}
