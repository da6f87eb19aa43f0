/// \file completion_race.cpp
/// A desk-scale rerun of the paper's most surprising experiment (Fig 10):
/// under Star faults and Regular-Permutation-to-Neighbour traffic, OmniSP
/// posts the higher throughput peak yet PolSP finishes the job much
/// earlier — peak throughput can hide straggler tails. Every server sends
/// a fixed volume; we plot throughput over time and report completion.
///
/// Run: ./examples/completion_race [--side=4] [--phits=2000]

#include <cstdio>

#include "harness/experiment.hpp"
#include "topology/faults.hpp"
#include "util/options.hpp"

using namespace hxsp;

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const int side = opt.get_int_as<int>("side", 4);
  const long phits = opt.get_int("phits", 2000);
  opt.warn_unknown();

  ExperimentSpec base;
  base.sides = {side, side, side};
  base.mechanism = "omnisp";
  base.pattern = "rpn";
  base.sim.num_vcs = 4;

  HyperX scratch(base.sides, side);
  const SwitchId center = scratch.switch_at({side / 2, side / 2, side / 2});
  const ShapeFault star = star_fault(scratch, center, side - 1);
  base.fault_links = star.links;
  base.escape_root = center;

  std::printf("Completion race: RPN traffic, Star fault at the escape root "
              "(%zu links dead), %ld phits per server\n\n",
              star.links.size(), phits);

  Cycle times[2] = {0, 0};
  int idx = 0;
  for (const char* mech : {"omnisp", "polsp"}) {
    ExperimentSpec s = base;
    s.mechanism = mech;
    Experiment e(s);
    const CompletionResult res =
        e.run_completion(phits / s.sim.packet_length, /*bucket=*/2000,
                         /*max_cycles=*/2000000);
    times[idx++] = res.completion_time;
    std::printf("%s completion: %ld cycles%s\n", mech,
                static_cast<long>(res.completion_time),
                res.drained ? "" : " (deadline hit!)");
    std::printf("  throughput trace: ");
    for (std::size_t b = 0; b < res.series.num_buckets(); ++b)
      std::printf("%.2f ", res.series.rate(b, res.num_servers));
    std::printf("\n\n");
  }
  if (times[1] > 0)
    std::printf("OmniSP / PolSP completion ratio: %.2fx (paper reports 2.8x "
                "at full scale)\n",
                static_cast<double>(times[0]) / static_cast<double>(times[1]));
  return 0;
}
