/// \file metrics_test.cpp
/// Metrics tests: Jain index closed forms, histogram percentiles,
/// measurement windows, time series bucketing.

#include <gtest/gtest.h>

#include "metrics/report.hpp"
#include "metrics/stats.hpp"
#include "metrics/timeseries.hpp"

namespace hxsp {
namespace {

TEST(Jain, PerfectEquityIsOne) {
  EXPECT_DOUBLE_EQ(jain_index({5, 5, 5, 5}), 1.0);
}

TEST(Jain, SingleActiveServerIsOneOverN) {
  EXPECT_DOUBLE_EQ(jain_index({8, 0, 0, 0}), 0.25);
}

TEST(Jain, KnownTwoValueCase) {
  // x = (1, 3): (1+3)^2 / (2 * (1 + 9)) = 16/20 = 0.8.
  EXPECT_DOUBLE_EQ(jain_index({1, 3}), 0.8);
}

TEST(Jain, EmptyAndZeroVectors) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({0, 0, 0}), 1.0);
}

TEST(Jain, ScaleInvariant) {
  EXPECT_NEAR(jain_index({1, 2, 3}), jain_index({10, 20, 30}), 1e-12);
}

TEST(Histogram, PercentilesOrdered) {
  LatencyHistogram h(4, 100);
  for (Cycle v = 0; v < 400; ++v) h.add(v);
  EXPECT_EQ(h.count(), 400);
  const Cycle p50 = h.percentile(0.5);
  const Cycle p99 = h.percentile(0.99);
  EXPECT_LE(p50, p99);
  EXPECT_NEAR(static_cast<double>(p50), 200.0, 8.0);
  EXPECT_NEAR(static_cast<double>(p99), 396.0, 8.0);
}

TEST(Histogram, OverflowBucketCatchesLargeValues) {
  LatencyHistogram h(2, 4); // covers [0, 8) + overflow
  h.add(1000000);
  EXPECT_EQ(h.count(), 1);
  EXPECT_GE(h.percentile(0.5), 8);
}

TEST(Histogram, LargeLatenciesKeepTheirBucket) {
  // Past the initial 1024 buckets of 8 cycles the histogram grows instead
  // of clamping every sample to one overflow edge (8200).
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.add(10000);
  EXPECT_EQ(h.percentile(0.99), 10008);  // bucket [10000, 10008)
}

TEST(Histogram, SubtractRemovesSnapshotSamples) {
  LatencyHistogram h;
  h.add(5);
  const LatencyHistogram snapshot = h;
  h.add(100);
  LatencyHistogram since = h;
  since.subtract(snapshot);
  EXPECT_EQ(since.count(), 1);
  EXPECT_EQ(since.percentile(0.5), 104);  // bucket [96, 104)
  since.subtract(since);
  EXPECT_EQ(since.count(), 0);
  EXPECT_EQ(since.percentile(0.5), -1);
}

TEST(SimMetrics, WindowAccounting) {
  SimMetrics m;
  m.configure(2, 16);
  m.on_generated(0, 10);  // before window: not counted in jain/generated
  m.on_consumed(1, 0, 90); // before window: not counted in window results
  m.begin_window(100);
  m.on_generated(0, 150);
  m.on_generated(0, 160);
  m.on_generated(1, 170);
  m.on_consumed(1, 100, 180);
  m.on_consumed(0, 120, 200);
  m.end_window(200);
  EXPECT_EQ(m.window_cycles(), 100);
  // 2 packets * 16 phits over 100 cycles and 2 servers = 0.16.
  EXPECT_NEAR(m.accepted_load(), 0.16, 1e-12);
  // 3 packets generated in-window: 48 phits / (100 * 2).
  EXPECT_NEAR(m.generated_load(), 0.24, 1e-12);
  // Latencies 80 and 80 -> average 80.
  EXPECT_NEAR(m.avg_latency(), 80.0, 1e-12);
  // Generated per server: (32, 16) -> jain = 48^2/(2*(1024+256)).
  EXPECT_NEAR(m.jain(), 2304.0 / 2560.0, 1e-12);
  EXPECT_EQ(m.consumed_packets(), 2);
  EXPECT_EQ(m.total_consumed_packets(), 3);
  EXPECT_EQ(m.total_generated_packets(), 4);
  EXPECT_EQ(m.latency_histogram().count(), 2);
}

TEST(SimMetrics, HopKindFractions) {
  SimMetrics m;
  m.configure(1, 16);
  m.on_hop(HopKind::Forced); // before the window: counted, not reported
  m.begin_window(0);
  m.on_hop(HopKind::Routing);
  m.on_hop(HopKind::Routing);
  m.on_hop(HopKind::Escape);
  m.on_hop(HopKind::Forced);
  m.end_window(10);
  EXPECT_NEAR(m.escape_hop_fraction(), 0.5, 1e-12);
  EXPECT_NEAR(m.forced_hop_fraction(), 0.25, 1e-12);
}

TEST(SimMetrics, ZeroWindowSafe) {
  SimMetrics m;
  m.configure(4, 16);
  EXPECT_DOUBLE_EQ(m.accepted_load(), 0.0);
  EXPECT_DOUBLE_EQ(m.avg_latency(), 0.0);
  EXPECT_DOUBLE_EQ(m.jain(), 1.0);
}

TEST(TimeSeries, BucketsByWidth) {
  TimeSeries ts(100);
  ts.add(0, 5);
  ts.add(99, 5);
  ts.add(100, 7);
  ts.add(950, 1);
  ASSERT_EQ(ts.num_buckets(), 10u);
  EXPECT_EQ(ts.bucket(0), 10);
  EXPECT_EQ(ts.bucket(1), 7);
  EXPECT_EQ(ts.bucket(9), 1);
  EXPECT_EQ(ts.bucket_start(9), 900);
}

TEST(TimeSeries, RateNormalisation) {
  TimeSeries ts(100);
  ts.add(10, 1600);
  // 1600 phits / (100 cycles * 4 servers) = 4 phits/cycle/server.
  EXPECT_NEAR(ts.rate(0, 4.0), 4.0, 1e-12);
}

TEST(ResultRow, FromMetricsCopiesFields) {
  SimMetrics m;
  m.configure(1, 16);
  m.begin_window(0);
  m.on_generated(0, 1);
  m.on_consumed(0, 0, 50);
  m.end_window(100);
  ResultRow row;
  row.mechanism = "PolSP";
  row.from_metrics(m);
  EXPECT_NEAR(row.accepted, 0.16, 1e-12);
  EXPECT_NEAR(row.avg_latency, 50.0, 1e-12);
  EXPECT_EQ(row.packets, 1);
  EXPECT_EQ(row.cycles, 100);
}

} // namespace
} // namespace hxsp
