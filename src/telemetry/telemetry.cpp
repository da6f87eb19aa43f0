/// \file telemetry.cpp
/// TelemetryRegistry window bookkeeping (see telemetry.hpp).

#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cstddef>

#include "sim/network.hpp"
#include "telemetry/capture.hpp"
#include "util/check.hpp"

namespace hxsp {

TelemetryRegistry::TelemetryRegistry(const Graph& g, Cycle window,
                                     int num_vcs)
    : graph_(&g), window_(window) {
  HXSP_CHECK(window > 0 && num_vcs > 0);
  router_.resize(static_cast<std::size_t>(g.num_switches()));
  vc_grants_.resize(static_cast<std::size_t>(num_vcs), 0);
  std::size_t directed_links = 0;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    directed_links += static_cast<std::size_t>(g.degree(s));
  }
  link_phits_at_start_.assign(directed_links, 0);
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

void TelemetryRegistry::roll(const Network& net) {
  const Cycle now = net.now();
  HXSP_CHECK(now > cur_.start);
  cur_.end = now;
  const MetricTally& tally = net.metrics().tally();
  const MetricTally d = tally.since(tally_at_start_);
  tally_at_start_ = tally;
  cur_.consumed = d.consumed;
  cur_.consumed_phits = d.consumed * net.cfg().packet_length;
  if (d.latency.count() > 0) {
    cur_.p50_latency = d.latency.percentile(0.50);
    cur_.p99_latency = d.latency.percentile(0.99);
  }
  const auto& [routing, escape, forced] = d.hops;
  cur_.hops_routing = routing;
  cur_.hops_escape = escape;
  cur_.hops_forced = forced;
  // The per-link series, when kept, is in the same (switch, port) order.
  std::size_t i = 0;
  for (SwitchId s = 0; s < graph_->num_switches(); ++s) {
    const Router& r = net.router(s);
    for (Port p = 0; p < graph_->degree(s); ++p, ++i) {
      const std::int64_t sent = r.link_phits(p);
      const std::int64_t phits = sent - link_phits_at_start_[i];
      link_phits_at_start_[i] = sent;
      cur_.link_phits += phits;
      cur_.link_max_phits = std::max(cur_.link_max_phits, phits);
      if (!links_.empty()) {
        links_[i].phits.push_back(phits);
        links_[i].total += phits;
      }
    }
  }
  frames_.push_back(cur_);

  const std::int64_t next_window = cur_.window + 1;
  cur_ = TelemetryFrame{};
  cur_.window = next_window;
  cur_.start = now;
}

void TelemetryRegistry::flush(const Network& net) {
  if (net.now() > cur_.start) roll(net);
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
