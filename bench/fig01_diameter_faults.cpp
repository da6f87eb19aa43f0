/// \file fig01_diameter_faults.cpp
/// Reproduces paper Figure 1: evolution of the diameter of an 8x8x8
/// HyperX as random uniform link failures accumulate, for several fault
/// sequences (one per seed), until the network disconnects. Pure graph
/// computation — runs at the paper's full scale by default.
///
/// The per-seed sequences are independent, so they fan across the sweep
/// pool via ParallelSweep::map (--jobs=N); each seed's walk is
/// self-contained (own Graph copy and Rng), so output is bit-identical
/// at any worker count. Graph walks are not simulations, so --emit-tasks
/// writes an empty manifest.
///
/// Usage: fig01_diameter_faults [--side=8] [--dims=3] [--seeds=5]
///                              [--step=10] [--jobs=N] [--csv[=file]]

#include "bench_util.hpp"
#include "topology/distance.hpp"
#include "topology/faults.hpp"

using namespace hxsp;

namespace {

/// One diameter transition of a fault sequence (recorded like the figure:
/// the first fault count at which each new diameter was observed).
struct Transition {
  int faults = 0;
  double fault_frac = 0;
  int diameter = 0;
};

/// Everything one seed's walk produces.
struct SeedTrace {
  std::vector<Transition> transitions;
  int disconnected_at = -1;  ///< fault count of the first sampled
                             ///< disconnection; -1 if never reached
};

SeedTrace walk_seed(const HyperX& hx, int seed, int step) {
  SeedTrace trace;
  Graph g = hx.graph();
  Rng rng(static_cast<std::uint64_t>(seed));
  const auto seq = random_fault_sequence(g, rng);
  int last_diam = -1;
  for (int f = 0; f <= g.num_links(); f += step) {
    for (int i = f - step; i < f; ++i)
      if (i >= 0) g.fail_link(seq[static_cast<std::size_t>(i)]);
    if (!g.connected()) {
      trace.disconnected_at = f;
      break;
    }
    const int diam = DistanceTable(g).diameter();
    if (diam != last_diam) { // record only transitions, like the figure
      trace.transitions.push_back(
          {f, static_cast<double>(f) / g.num_links(), diam});
      last_diam = diam;
    }
  }
  return trace;
}

} // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const int side = opt.get_int_as<int>("side", 8);
  const int dims = opt.get_int_as<int>("dims", 3);
  // Paper plots several sequences at single-fault granularity; default to
  // 3 seeds sampled every 20 faults so the bench stays ~20 s on one core
  // (--seeds / --step restore any resolution).
  const int seeds = opt.get_int_as<int>("seeds", 3);
  const int step = opt.get_int_as<int>("step", 20);
  const bench::CommonOptions common(opt);
  if (bench::maybe_emit_tasks(common, TaskGrid("fig01_diameter_faults")))
    return 0;

  const HyperX hx = HyperX::regular(dims, side, 1);
  std::printf("Figure 1 — Diameter vs random link failures (%s, %d links)\n",
              hx.describe().c_str(), hx.graph().num_links());
  std::printf("Paper landmarks (8x8x8): ~80 faults to diameter 4, ~35%% of\n"
              "links to diameter 5, ~75%% to disconnection.\n\n");

  Table t({"seed", "faults", "fault_frac", "diameter"});
  ResultSink sink("fig01_diameter_faults");
  ParallelSweep sweep(common.jobs);
  sweep.map<SeedTrace>(
      static_cast<std::size_t>(seeds),
      [&](std::size_t i) { return walk_seed(hx, static_cast<int>(i) + 1, step); },
      [&](std::size_t i, const SeedTrace& trace) {
        const int seed = static_cast<int>(i) + 1;
        for (const Transition& tr : trace.transitions) {
          t.row().cell(static_cast<long>(seed))
              .cell(static_cast<long>(tr.faults)).cell(tr.fault_frac, 4)
              .cell(static_cast<long>(tr.diameter));
          ResultRecord rec;
          rec.kind = "graph";
          rec.task_id = make_task_id("fig01_diameter_faults", i);
          rec.seed = static_cast<std::uint64_t>(seed);
          rec.extra = "faults=" + std::to_string(tr.faults) +
                      ";diameter=" + std::to_string(tr.diameter);
          sink.add(std::move(rec));
        }
        if (trace.disconnected_at >= 0)
          std::printf("seed %d: disconnected at <= %d faults (%.1f%% of links)\n",
                      seed, trace.disconnected_at,
                      100.0 * trace.disconnected_at / hx.graph().num_links());
      });
  std::printf("\nDiameter transitions (first fault count at which each new\n"
              "diameter was observed, sampled every %d faults):\n\n%s\n",
              step, t.str().c_str());
  bench::persist(opt, sink, "fig01_diameter_faults");
  return 0;
}
