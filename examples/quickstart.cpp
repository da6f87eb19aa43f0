/// \file quickstart.cpp
/// Minimal end-to-end use of the library:
///   1. describe an experiment (topology + routing mechanism + traffic),
///   2. run one simulation point,
///   3. read the metrics.
///
/// Build & run:  ./examples/quickstart [--side=8] [--load=0.5]

#include <cstdio>

#include "harness/experiment.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  const hxsp::Options opt(argc, argv);

  // A 2D HyperX of side 8 (64 switches, 8 servers each), routed with
  // SurePath over Polarized routes — the paper's PolSP configuration.
  hxsp::ExperimentSpec spec;
  const int side = opt.get_int_as<int>("side", 8);
  const double load = opt.get_double("load", 0.5);
  opt.warn_unknown();
  spec.sides = {side, side};
  spec.mechanism = "polsp";
  spec.pattern = "uniform";
  spec.sim.num_vcs = 4; // 3 routing VCs + 1 escape VC
  spec.warmup = 2000;
  spec.measure = 5000;

  hxsp::Experiment experiment(spec);
  std::printf("Topology: %s (%d links, diameter %d)\n",
              experiment.hyperx().describe().c_str(),
              experiment.hyperx().graph().num_links(),
              experiment.distances().diameter());
  std::printf("Escape subnetwork: root %d, %d black / %d red links\n\n",
              experiment.escape()->root(), experiment.escape()->num_black_links(),
              experiment.escape()->num_red_links());

  const hxsp::ResultRow r = experiment.run_load(load);
  std::printf("offered load      : %.2f phits/cycle/server\n", r.offered);
  std::printf("accepted load     : %.3f phits/cycle/server\n", r.accepted);
  std::printf("average latency   : %.1f cycles\n", r.avg_latency);
  std::printf("p99 latency       : %ld cycles\n", static_cast<long>(r.p99_latency));
  std::printf("Jain fairness     : %.4f\n", r.jain);
  std::printf("escape-hop share  : %.2f%%\n", 100.0 * r.escape_frac);
  std::printf("packets measured  : %ld\n", static_cast<long>(r.packets));
  return 0;
}
