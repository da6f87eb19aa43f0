/// \file fig04_2d_faultfree.cpp
/// Reproduces paper Figure 4: fault-free 2D HyperX performance — accepted
/// throughput, average message latency and Jain index of generated load
/// versus offered load, for the six routing mechanisms under Uniform,
/// Random Server Permutation and Dimension Complement Reverse traffic.
///
/// Default: reduced scale (8x8, shortened cycles). --paper: 16x16 with the
/// paper's measurement windows. The (pattern, mechanism, load) grid is a
/// TaskGrid: run in-process across a ParallelSweep pool (--jobs=N, output
/// bit-identical at any worker count) or emitted as a TaskSpec manifest
/// (--emit-tasks) for hxsp_runner.
///
/// Usage: fig04_2d_faultfree [--paper] [--loads=..] [--mechs=..]
///                           [--patterns=..] [--csv[=file]] [--seed=N]
///                           [--jobs=N] [--emit-tasks[=file]]

#include "bench_util.hpp"

using namespace hxsp;

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const bool paper = opt.get_bool("paper", false);
  ExperimentSpec base = spec_from_options(opt, 2);
  bench::quick_cycles(opt, paper, base);
  const auto mechs = opt.get_list("mechs", bench::paper_mechanisms());
  const auto patterns = opt.get_list("patterns", bench::patterns_2d());
  const auto loads = bench::load_sweep(opt, paper);
  const bench::CommonOptions common(opt);

  const bench::LoadGrid lg =
      bench::build_load_grid("fig04_2d_faultfree", base, patterns, mechs, loads);
  if (bench::maybe_emit_tasks(common, lg.grid)) return 0;

  bench::banner("Figure 4 — 2D HyperX, fault-free: throughput / latency / "
                "Jain vs offered load",
                base);

  Table t({"pattern", "mechanism", "offered", "accepted", "avg_latency",
           "jain", "escape_frac"});
  ResultSink sink("fig04_2d_faultfree");
  bench::run_load_grid(lg, common, t, sink);
  std::printf("\nFull rows (accepted / latency / jain):\n\n%s\n", t.str().c_str());
  std::printf("Paper shape check: all mechanisms except Valiant reach high\n"
              "throughput on Uniform; Valiant sits near 0.5; Minimal\n"
              "collapses on DCR while Valiant achieves its optimal 0.5 and\n"
              "the adaptive mechanisms match it; OmniSP/PolSP track their\n"
              "ladder counterparts.\n");
  bench::persist(opt, sink, "fig04_2d_faultfree");
  return 0;
}
