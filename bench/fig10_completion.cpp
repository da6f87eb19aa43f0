/// \file fig10_completion.cpp
/// Reproduces paper Figure 10: completion time for the Regular Permutation
/// to Neighbour pattern under the Star fault configuration. Every server
/// sends a fixed volume (8000 phits in the paper) as fast as it can; the
/// output is throughput-over-time plus the completion time, showing the
/// straggler tail created by the nearly-disconnected escape root (the
/// paper measures OmniSP completing ~2.8x slower than PolSP despite a
/// higher throughput peak).
///
/// The per-mechanism races are completion-mode TaskSpecs on a TaskGrid:
/// run in-process across a ParallelSweep pool (--jobs=N, bit-identical at
/// any worker count) or emitted as a manifest (--emit-tasks) for
/// hxsp_runner.
///
/// Usage: fig10_completion [--paper] [--phits=4000] [--bucket=2000]
///                         [--deadline=N] [--csv[=file]] [--seed=N]
///                         [--jobs=N] [--emit-tasks[=file]]

#include "bench_util.hpp"
#include "topology/faults.hpp"

using namespace hxsp;

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const bool paper = opt.get_bool("paper", false);
  ExperimentSpec base = spec_from_options(opt, 3);
  base.sim.num_vcs = opt.get_int_as<int>("vcs", 4);
  const long phits = opt.get_int("phits", paper ? 8000 : 4000);
  const long packets = phits / base.sim.packet_length;
  const Cycle bucket = opt.get_int("bucket", paper ? 5000 : 2000);
  const Cycle deadline = opt.get_int("deadline", 4000000);
  const bench::CommonOptions common(opt);

  const int side = base.sides[0];
  HyperX scratch(base.sides, base.resolved_servers_per_switch());
  const SwitchId center = scratch.switch_at(std::vector<int>(3, side / 2));
  const ShapeFault star = star_fault(scratch, center, std::max(2, side - 1));

  TaskGrid grid("fig10_completion");
  for (const auto& mech : bench::surepath_mechanisms()) {
    ExperimentSpec s = base;
    s.mechanism = mech;
    s.pattern = "rpn";
    s.fault_links = star.links;
    s.escape_root = center;
    grid.add(TaskSpec::completion(s, packets, bucket, deadline));
  }
  if (bench::maybe_emit_tasks(common, grid)) return 0;

  bench::banner("Figure 10 — Completion time, RPN traffic, Star faults "
                "(every server sends " + std::to_string(phits) + " phits)",
                base);

  ResultSink sink("fig10_completion");
  std::vector<std::pair<std::string, Cycle>> completions;
  bench::run_grid(grid, common, sink,
                  [&](std::size_t, const TaskSpec&, const TaskResult& result) {
    const CompletionResult& res = std::get<CompletionResult>(result);
    completions.emplace_back(res.mechanism, res.completion_time);
    std::printf("\n%s: %s, completion time = %ld cycles\n",
                res.mechanism.c_str(),
                res.drained ? "drained" : "DEADLINE EXCEEDED",
                static_cast<long>(res.completion_time));
    std::printf("  t(cycles)  accepted(phits/cycle/server)\n");
    for (std::size_t b = 0; b < res.series.num_buckets(); ++b) {
      const double rate =
          res.series.rate(b, static_cast<double>(res.num_servers));
      std::printf("  %8ld  %.4f\n",
                  static_cast<long>(res.series.bucket_start(b)), rate);
    }
    std::fflush(stdout);
  });

  if (completions.size() == 2 && completions[0].second > 0 &&
      completions[1].second > 0) {
    const double ratio = static_cast<double>(completions[0].second) /
                         static_cast<double>(completions[1].second);
    std::printf("\nCompletion ratio %s / %s = %.2fx (paper: 2.8x)\n",
                completions[0].first.c_str(), completions[1].first.c_str(),
                ratio);
  }
  bench::persist(opt, sink, "fig10_completion");
  return 0;
}
