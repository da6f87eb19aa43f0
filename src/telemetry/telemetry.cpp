/// \file telemetry.cpp
/// TelemetryRegistry window bookkeeping (see telemetry.hpp).

#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cstddef>

#include "telemetry/capture.hpp"
#include "util/check.hpp"

namespace hxsp {

TelemetryRegistry::TelemetryRegistry(const Graph& g, Cycle window,
                                     int num_vcs)
    : graph_(&g), window_(window), link_window_(g) {
  HXSP_CHECK(window > 0 && num_vcs > 0);
  router_.resize(static_cast<std::size_t>(g.num_switches()));
  vc_grants_.resize(static_cast<std::size_t>(num_vcs), 0);
  std::size_t directed_links = 0;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    directed_links += static_cast<std::size_t>(g.degree(s));
  }
  if (directed_links <= kMaxLinkSeriesLinks) {
    links_.reserve(directed_links);
    for (SwitchId s = 0; s < g.num_switches(); ++s) {
      for (Port p = 0; p < g.degree(s); ++p) {
        LinkWindowSeries series;
        series.sw = s;
        series.port = p;
        series.to = g.port(s, p).neighbor;
        links_.push_back(std::move(series));
      }
    }
  }
}

void TelemetryRegistry::roll(Cycle now) {
  HXSP_CHECK(now > cur_.start);
  cur_.end = now;
  if (hist_.count() > 0) {
    cur_.p50_latency = hist_.percentile(0.50);
    cur_.p99_latency = hist_.percentile(0.99);
  }
  std::int64_t link_max = 0;
  for (LinkWindowSeries& series : links_) {
    const std::int64_t phits = link_window_.phits(series.sw, series.port);
    series.phits.push_back(phits);
    series.total += phits;
    link_max = std::max(link_max, phits);
  }
  if (links_.empty()) {
    // Above the series cap: still report the busiest link per window.
    for (SwitchId s = 0; s < graph_->num_switches(); ++s) {
      for (Port p = 0; p < graph_->degree(s); ++p) {
        link_max = std::max(link_max, link_window_.phits(s, p));
      }
    }
  }
  cur_.link_max_phits = link_max;
  frames_.push_back(cur_);

  const std::int64_t next_window = cur_.window + 1;
  cur_ = TelemetryFrame{};
  cur_.window = next_window;
  cur_.start = now;
  hist_.reset();
  link_window_.reset();
}

void TelemetryRegistry::flush(Cycle now) {
  if (now > cur_.start) roll(now);
}

void TelemetryRegistry::export_to(TelemetryCapture& out) const {
  out.window = window_;
  out.frames = frames_;
  out.links = links_;
  out.vc_grants = vc_grants_;
  out.router_injections.clear();
  out.router_ejections.clear();
  out.router_escape_entries.clear();
  out.router_credit_stalls.clear();
  out.router_occupancy_hwm.clear();
  out.router_injections.reserve(router_.size());
  for (const RouterCounters& rc : router_) {
    out.router_injections.push_back(rc.injections);
    out.router_ejections.push_back(rc.ejections);
    out.router_escape_entries.push_back(rc.escape_entries);
    out.router_credit_stalls.push_back(rc.credit_stalls);
    out.router_occupancy_hwm.push_back(rc.occupancy_hwm);
  }
}

} // namespace hxsp
