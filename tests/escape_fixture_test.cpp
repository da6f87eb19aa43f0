/// \file escape_fixture_test.cpp
/// The two small runs that reproduce how SurePath fails above saturation
/// (ROADMAP item 9), pinned so a change to the escape rules shows.
///
///  * Wedge: under the paper's memoryless escape rule the escape VC has a
///    channel-dependency cycle, so an escape-only 4x4 run at full load
///    deadlocks and the watchdog aborts it.
///  * Collapse: under the one-way escape rule (an escaped packet never
///    returns to the routing VCs), an 8x8 PolSP run at full load consumes
///    0.5-0.6 phits/cycle/server for a few thousand cycles and then falls,
///    because traffic that enters the escape stays in a subnetwork that
///    carries almost nothing.
///
/// Neither run is tuned: both use the paper's buffers, packet length and
/// VC count (SimConfig defaults), uniform traffic and offered load 1.0.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "harness/experiment.hpp"
#include "telemetry/capture.hpp"

namespace hxsp {
namespace {

TEST(EscapeFixtureDeathTest, MemorylessEscapeOnly4x4Wedges) {
  ExperimentSpec spec;
  spec.sides = {4, 4};
  spec.mechanism = "escape";
  spec.escape_strict_phase = false;
  spec.sim.watchdog_cycles = 2000;
  EXPECT_DEATH(
      {
        Experiment e(spec);
        (void)e.run_load(1.0);
      },
      "simulation stalled \\(watchdog\\)");
}

TEST(EscapeFixture, PolSp8x8OneWayEscapeCollapses) {
  ExperimentSpec spec;
  spec.sides = {8, 8};
  spec.servers_per_switch = 8;
  spec.mechanism = "polsp";
  ASSERT_TRUE(spec.escape_strict_phase); // the one-way rule's default
  spec.warmup = 4000;
  spec.measure = 8000;
  spec.sim.telemetry_window = 2000;
  Experiment e(spec);
  TelemetryCapture cap;
  e.attach_telemetry(&cap);
  (void)e.run_load(1.0);
  ASSERT_EQ(cap.frames.size(), 6u);
  std::int64_t peak = 0;
  for (const TelemetryFrame& f : cap.frames)
    peak = std::max(peak, f.consumed_phits);
  const std::int64_t last = cap.frames.back().consumed_phits;
  EXPECT_LT(2 * last, peak) << "last window " << last << " phits, peak "
                            << peak;
}

} // namespace
} // namespace hxsp
