/// \file fig05_3d_faultfree.cpp
/// Reproduces paper Figure 5: fault-free 3D HyperX performance for the six
/// mechanisms under Uniform, Random Server Permutation, Dimension
/// Complement Reverse and the paper's new Regular Permutation to
/// Neighbour pattern (which separates Omnidimensional from Polarized
/// routes: aligned routes are bisection-bounded at 0.5).
///
/// Default: reduced scale (4x4x4). --paper: 8x8x8. The grid is a TaskGrid:
/// run in-process across a ParallelSweep pool (--jobs=N, bit-identical at
/// any worker count) or emitted as a TaskSpec manifest (--emit-tasks) for
/// hxsp_runner.
///
/// Usage: fig05_3d_faultfree [--paper] [--loads=..] [--mechs=..]
///                           [--patterns=..] [--csv[=file]] [--seed=N]
///                           [--jobs=N] [--emit-tasks[=file]]

#include "bench_util.hpp"

using namespace hxsp;

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const bool paper = opt.get_bool("paper", false);
  ExperimentSpec base = spec_from_options(opt, 3);
  bench::quick_cycles(opt, paper, base);
  const auto mechs = opt.get_list("mechs", bench::paper_mechanisms());
  const auto patterns = opt.get_list("patterns", bench::patterns_3d());
  const auto loads = bench::load_sweep(opt, paper);
  const bench::CommonOptions common(opt);

  const bench::LoadGrid lg =
      bench::build_load_grid("fig05_3d_faultfree", base, patterns, mechs, loads);
  if (bench::maybe_emit_tasks(common, lg.grid)) return 0;

  bench::banner("Figure 5 — 3D HyperX, fault-free: throughput / latency / "
                "Jain vs offered load",
                base);

  Table t({"pattern", "mechanism", "offered", "accepted", "avg_latency",
           "jain", "escape_frac"});
  ResultSink sink("fig05_3d_faultfree");
  bench::run_load_grid(lg, common, t, sink);
  std::printf("\nFull rows:\n\n%s\n", t.str().c_str());
  std::printf("Paper shape check: on RPN, Minimal is worst, OmniWAR/OmniSP\n"
              "are capped near 0.5 (aligned routes cannot beat the bisection\n"
              "bound) while Polarized/PolSP exceed it via 3-hop unaligned\n"
              "routes.\n");
  bench::persist(opt, sink, "fig05_3d_faultfree");
  return 0;
}
