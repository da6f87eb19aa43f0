/// \file server_test.cpp
/// The server's released-message FIFO (message mode) and the VecFifo it
/// is built on: release order survives partial drains and compaction, a
/// drained FIFO reuses its storage, and a server that never enters
/// message mode holds no FIFO storage at all.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/experiment.hpp"
#include "util/vecfifo.hpp"
#include "workload/run.hpp"

namespace hxsp {
namespace {

TEST(VecFifo, EmptyHoldsNoStorage) {
  VecFifo<std::int32_t> f;
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.capacity(), 0u);
}

TEST(VecFifo, OrderSurvivesCompactionAndStorageStaysBounded) {
  VecFifo<int> f;
  int next_in = 0, next_out = 0;
  std::size_t peak_live = 0;
  // The live length swings between 1 and 40 without the FIFO ever running
  // empty, so reclaiming the consumed prefix is the only way to bound it.
  for (int round = 0; round < 400; ++round) {
    const int push = 1 + (round * 7) % 13;
    for (int i = 0; i < push; ++i) f.push_back(next_in++);
    if (f.size() > peak_live) peak_live = f.size();
    while (f.size() > static_cast<std::size_t>(1 + round % 40)) {
      ASSERT_EQ(f.front(), next_out);
      ASSERT_EQ(f.pop_front(), next_out++);
    }
  }
  EXPECT_LE(f.capacity(), 4 * peak_live);
  while (!f.empty()) EXPECT_EQ(f.pop_front(), next_out++);
  EXPECT_EQ(next_in, next_out);
}

/// Message source for a single sending server: every message goes to
/// one destination, and start_message() — which a server calls exactly
/// once, when it starts a message — records the order messages are
/// started in.
class RecordingSource : public MessageSource {
 public:
  RecordingSource(ServerId dst, int packets) : dst_(dst), packets_(packets) {}
  ServerId msg_dst(std::int32_t, Rng&) const override { return dst_; }
  int start_message(std::int32_t m) override {
    started.push_back(m);
    return packets_;
  }
  void on_packet_consumed(std::int32_t, Cycle, Network&) override {}

  std::vector<std::int32_t> started;

 private:
  ServerId dst_;
  int packets_;
};

ExperimentSpec small_spec() {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 1;
  s.mechanism = "minimal";
  s.pattern = "uniform";
  s.sim.num_vcs = 2;
  s.sim.server_queue_packets = 2; // a 3-packet message spans refills
  s.seed = 3;
  return s;
}

std::vector<std::int32_t> iota_ids(std::int32_t lo, std::int32_t hi) {
  std::vector<std::int32_t> v;
  for (std::int32_t m = lo; m < hi; ++m) v.push_back(m);
  return v;
}

TEST(ServerWorkloadFifo, ReleasesDuringPartialDrainKeepOrderAndReuseStorage) {
  const ExperimentSpec spec = small_spec();
  Experiment e(spec);
  Network net(e.context(), e.mechanism(), e.traffic(), spec.sim, 1, spec.seed);
  const int packets = 3;
  RecordingSource src(/*dst=*/15, packets);
  net.enter_message_mode(&src);
  Server& s = net.server(0);

  for (std::int32_t m = 0; m < 4; ++m) s.push_message(m);
  // Step until the server is into its second message: 0 and 1 have left
  // the FIFO, 2 and 3 still wait in it.
  while (src.started.size() < 2) net.run_cycles(1);
  ASSERT_EQ(s.released_messages().size(), 2u);
  EXPECT_EQ(s.released_messages().front(), 2);
  for (std::int32_t m = 4; m < 8; ++m) s.push_message(m);
  ASSERT_TRUE(net.run_until_drained(100000));
  EXPECT_EQ(src.started, iota_ids(0, 8));

  // Drained: the FIFO is empty but keeps its storage, and a second burst
  // no larger than the first fits in it without growing.
  EXPECT_TRUE(s.released_messages().empty());
  const std::size_t cap = s.released_messages().capacity();
  EXPECT_GE(cap, 4u);
  for (std::int32_t m = 8; m < 12; ++m) s.push_message(m);
  EXPECT_EQ(s.released_messages().capacity(), cap);
  ASSERT_TRUE(net.run_until_drained(100000));
  EXPECT_EQ(src.started, iota_ids(0, 12));
  net.run_audit();
}

TEST(ServerWorkloadFifo, RateModeServerHoldsNoFifoStorage) {
  const ExperimentSpec spec = small_spec();
  Experiment e(spec);
  Network net(e.context(), e.mechanism(), e.traffic(), spec.sim, 1, spec.seed);
  net.set_offered_load(0.5);
  net.run_cycles(500);
  EXPECT_GT(net.metrics().total_consumed_packets(), 0);
  for (ServerId v = 0; v < net.num_servers(); ++v)
    EXPECT_EQ(net.server(v).released_messages().capacity(), 0u) << v;
}

} // namespace
} // namespace hxsp
