#pragma once
/// \file hot_links.hpp
/// The busiest directed links of one rate-mode run, read from the
/// telemetry capture's per-link window series (the paper's
/// root-congestion analysis, §6).

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "telemetry/capture.hpp"

namespace hxsp::testutil {

/// One directed switch-to-switch link and its load over the measurement
/// window.
struct HotLink {
  SwitchId from = kInvalid;
  Port port = kInvalid;
  SwitchId to = kInvalid;
  double load = 0; ///< phits per cycle, in [0, 1]
};

/// Runs \p spec at \p offered with telemetry windows spec.warmup cycles
/// wide and returns its row plus the \p top_n links that sent the most
/// phits over the measurement window, hottest first. The topology must be
/// small enough for the capture to keep its per-link series.
inline std::pair<ResultRow, std::vector<HotLink>> run_load_hot_links(
    ExperimentSpec spec, double offered, int top_n) {
  spec.sim.telemetry_window = spec.warmup;
  Experiment e(spec);
  TelemetryCapture cap;
  e.attach_telemetry(&cap);
  const ResultRow row = e.run_load(offered);
  std::vector<HotLink> all;
  for (const LinkWindowSeries& l : cap.links) {
    std::int64_t sent = 0;
    for (std::size_t w = 0; w < cap.frames.size(); ++w)
      if (cap.frames[w].start >= spec.warmup) sent += l.phits[w];
    if (sent == 0) continue;
    all.push_back({l.sw, l.port, l.to,
                   static_cast<double>(sent) /
                       static_cast<double>(spec.measure)});
  }
  const std::size_t keep =
      std::min<std::size_t>(all.size(), static_cast<std::size_t>(top_n));
  std::partial_sort(
      all.begin(), all.begin() + static_cast<std::ptrdiff_t>(keep), all.end(),
      [](const HotLink& a, const HotLink& b) { return a.load > b.load; });
  all.resize(keep);
  return {row, all};
}

} // namespace hxsp::testutil
