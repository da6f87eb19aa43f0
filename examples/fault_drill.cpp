/// \file fault_drill.cpp
/// A fault-tolerance drill: take a healthy 2D HyperX, kill an entire row
/// of links (the paper's Row shape), then a Cross through the escape
/// root, and watch SurePath keep delivering while a DOR baseline loses
/// pairs outright. Mirrors the story of the paper's §6 at desk scale.
///
/// Run: ./examples/fault_drill [--side=8]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "telemetry/capture.hpp"
#include "topology/faults.hpp"
#include "util/options.hpp"

using namespace hxsp;

namespace {

void report(const char* title, const ResultRow& r) {
  std::printf("%-28s accepted %.3f | latency %6.1f | escape %5.2f%% | "
              "forced %5.2f%%\n",
              title, r.accepted, r.avg_latency, 100 * r.escape_frac,
              100 * r.forced_frac);
}

} // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const int side = opt.get_int_as<int>("side", 8);
  opt.warn_unknown();

  ExperimentSpec base;
  base.sides = {side, side};
  base.mechanism = "polsp";
  base.pattern = "uniform";
  base.sim.num_vcs = 4;
  base.warmup = 2000;
  base.measure = 4000;

  HyperX scratch(base.sides, side);
  const ShapeFault row = row_fault(scratch, 0, {0, side / 2});
  const SwitchId center = scratch.switch_at({side / 2, side / 2});
  const ShapeFault cross = star_fault(scratch, center, side - 2);

  std::printf("=== SurePath fault drill on a %dx%d HyperX ===\n\n", side, side);

  // 1. Healthy network.
  Experiment healthy(base);
  report("healthy:", healthy.run_load(0.9));

  // 2. Full row of links gone; escape root inside the dead row.
  ExperimentSpec s_row = base;
  s_row.fault_links = row.links;
  s_row.escape_root = row.suggested_root;
  Experiment e_row(s_row);
  std::printf("\n-- Row fault: %zu links removed --\n", row.links.size());
  report("PolSP under Row fault:", e_row.run_load(0.9));

  // 3. Cross through the root: the stress case. Also show where the load
  //    concentrates (the paper's root-congestion analysis), from the
  //    per-link series of a telemetry capture whose first window is the
  //    warmup.
  ExperimentSpec s_cross = base;
  s_cross.fault_links = cross.links;
  s_cross.escape_root = center;
  s_cross.sim.telemetry_window = base.warmup;
  Experiment e_cross(s_cross);
  TelemetryCapture cap;
  e_cross.attach_telemetry(&cap);
  std::printf("\n-- Cross fault: %zu links removed, root keeps %d links --\n",
              cross.links.size(), [&] {
                Graph g = scratch.graph();
                apply_faults(g, cross.links);
                return g.alive_degree(center);
              }());
  report("PolSP under Cross fault:", e_cross.run_load(0.9));
  // Phits each directed link sent after the warmup window, busiest first.
  std::vector<std::pair<std::int64_t, const LinkWindowSeries*>> hot;
  for (const LinkWindowSeries& l : cap.links)
    hot.push_back({l.total - l.phits.front(), &l});
  const std::size_t top = std::min<std::size_t>(hot.size(), 5);
  std::partial_sort(hot.begin(), hot.begin() + static_cast<std::ptrdiff_t>(top),
                    hot.end(), [](const auto& a, const auto& b) {
                      return a.first > b.first;
                    });
  std::printf("hottest links (phits/cycle):\n");
  if (hot.empty())
    std::printf("  (no per-link series above %zu directed links)\n",
                TelemetryRegistry::kMaxLinkSeriesLinks);
  for (std::size_t i = 0; i < top; ++i) {
    const LinkWindowSeries& l = *hot[i].second;
    const auto& cf = e_cross.hyperx().coords(l.sw);
    const auto& ct = e_cross.hyperx().coords(l.to);
    std::printf("  (%d,%d)->(%d,%d)  %.2f%s\n", cf[0], cf[1], ct[0], ct[1],
                static_cast<double>(hot[i].first) /
                    static_cast<double>(base.measure),
                (l.sw == center || l.to == center) ? "   <- escape root" : "");
  }

  // 4. Contrast: DOR loses routes with a single dead link.
  ExperimentSpec s_dor = base;
  s_dor.mechanism = "dor";
  const Port p = scratch.port_towards(0, 0, 1);
  s_dor.fault_links = {scratch.graph().port(0, p).link};
  Experiment e_dor(s_dor);
  const int broken = e_dor.walk_route(0, scratch.switch_at({1, 0}), 16);
  std::printf("\n-- DOR with ONE dead link --\n");
  std::printf("DOR route (0,0)->(1,0): %s (paper §1: a single failure breaks "
              "DOR)\n",
              broken < 0 ? "UNDELIVERABLE" : "ok");
  const int sp = Experiment([&] {
                   ExperimentSpec s = base;
                   s.fault_links = s_dor.fault_links;
                   return s;
                 }())
                     .walk_route(0, scratch.switch_at({1, 0}), 16);
  std::printf("PolSP same pair       : delivered in %d hops\n", sp);
  return 0;
}
