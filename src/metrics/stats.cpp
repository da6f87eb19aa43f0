#include "metrics/stats.hpp"

#include "util/check.hpp"

namespace hxsp {

double jain_index(const std::vector<std::int64_t>& x) {
  if (x.empty()) return 1.0;
  double sum = 0, sum2 = 0;
  for (std::int64_t v : x) {
    const double d = static_cast<double>(v);
    sum += d;
    sum2 += d * d;
  }
  if (sum2 == 0) return 1.0;
  return (sum * sum) / (static_cast<double>(x.size()) * sum2);
}

LatencyHistogram::LatencyHistogram(int bucket_width, int num_buckets)
    : width_(bucket_width), buckets_(static_cast<std::size_t>(num_buckets), 0) {
  HXSP_CHECK(bucket_width >= 1 && num_buckets >= 1);
}

void LatencyHistogram::add(Cycle latency) {
  if (latency < 0) latency = 0;
  const std::size_t b = static_cast<std::size_t>(latency / width_);
  if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
  ++buckets_[b];
  ++count_;
}

Cycle LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return -1;
  const auto target = static_cast<std::int64_t>(p * static_cast<double>(count_));
  std::int64_t acc = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    acc += buckets_[b];
    if (acc > target) return static_cast<Cycle>((b + 1) * static_cast<std::size_t>(width_));
  }
  return static_cast<Cycle>(buckets_.size() * static_cast<std::size_t>(width_));
}

void LatencyHistogram::subtract(const LatencyHistogram& base) {
  HXSP_CHECK(base.width_ == width_ && base.buckets_.size() <= buckets_.size());
  for (std::size_t b = 0; b < base.buckets_.size(); ++b)
    buckets_[b] -= base.buckets_[b];
  count_ -= base.count_;
}

MetricTally MetricTally::since(const MetricTally& base) const {
  MetricTally d = *this;
  d.consumed -= base.consumed;
  d.latency_sum -= base.latency_sum;
  for (std::size_t k = 0; k < hops.size(); ++k) d.hops[k] -= base.hops[k];
  d.latency.subtract(base.latency);
  return d;
}

void SimMetrics::configure(ServerId num_servers, int packet_length) {
  num_servers_ = num_servers;
  packet_length_ = packet_length;
  generated_phits_.assign(static_cast<std::size_t>(num_servers), 0);
}

void SimMetrics::begin_window(Cycle now) {
  window_start_ = now;
  window_end_ = -1;
  std::fill(generated_phits_.begin(), generated_phits_.end(), 0);
  window_begin_ = tally_;
}

void SimMetrics::end_window(Cycle now) {
  HXSP_CHECK(window_start_ >= 0 && now > window_start_);
  window_end_ = now;
  window_ = tally_.since(window_begin_);
}

void SimMetrics::on_generated(ServerId src, Cycle /*now*/) {
  ++total_generated_packets_;
  if (in_window())
    generated_phits_[static_cast<std::size_t>(src)] += packet_length_;
}

void SimMetrics::on_consumed(ServerId /*dst*/, Cycle created, Cycle now) {
  ++tally_.consumed;
  tally_.latency_sum += now - created;
  tally_.latency.add(now - created);
}

Cycle SimMetrics::window_cycles() const {
  return window_end_ < 0 ? 0 : window_end_ - window_start_;
}

double SimMetrics::accepted_load() const {
  const Cycle c = window_cycles();
  if (c <= 0 || num_servers_ == 0) return 0.0;
  return static_cast<double>(window_.consumed * packet_length_) /
         (static_cast<double>(c) * static_cast<double>(num_servers_));
}

double SimMetrics::generated_load() const {
  const Cycle c = window_cycles();
  if (c <= 0 || num_servers_ == 0) return 0.0;
  std::int64_t total = 0;
  for (std::int64_t v : generated_phits_) total += v;
  return static_cast<double>(total) /
         (static_cast<double>(c) * static_cast<double>(num_servers_));
}

double SimMetrics::avg_latency() const {
  if (window_.consumed == 0) return 0.0;
  return static_cast<double>(window_.latency_sum) /
         static_cast<double>(window_.consumed);
}

double SimMetrics::jain() const { return jain_index(generated_phits_); }

double SimMetrics::escape_hop_fraction() const {
  const auto& [routing, escape, forced] = window_.hops;
  const std::int64_t total = routing + escape + forced;
  if (total == 0) return 0.0;
  return static_cast<double>(escape + forced) / static_cast<double>(total);
}

double SimMetrics::forced_hop_fraction() const {
  const auto& [routing, escape, forced] = window_.hops;
  const std::int64_t total = routing + escape + forced;
  if (total == 0) return 0.0;
  return static_cast<double>(forced) / static_cast<double>(total);
}

} // namespace hxsp
