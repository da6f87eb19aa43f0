/// \file packet_slab_test.cpp
/// PacketSlab: the per-Network packet store behind every 4-byte handle.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/packet.hpp"

namespace hxsp {
namespace {

TEST(PacketSlab, LiveHandlesAreDistinct) {
  PacketSlab slab;
  std::vector<PacketHandle> hs;
  for (int i = 0; i < 100; ++i) {
    hs.push_back(slab.alloc());
    slab[hs.back()].id = i;
  }
  std::vector<PacketHandle> sorted = hs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(slab[hs[static_cast<std::size_t>(i)]].id, i);
  EXPECT_EQ(slab.live(), 100);
}

TEST(PacketSlab, FreedHandlesAreReusedLifo) {
  PacketSlab slab;
  const PacketHandle a = slab.alloc();
  const PacketHandle b = slab.alloc();
  const PacketHandle c = slab.alloc();
  slab.free(a);
  slab.free(c);
  EXPECT_EQ(slab.alloc(), c);
  EXPECT_EQ(slab.alloc(), a);
  EXPECT_NE(slab.alloc(), b); // b is still live: a fresh handle comes next
}

TEST(PacketSlab, ReusedPacketStartsDefault) {
  PacketSlab slab;
  const PacketHandle h = slab.alloc();
  slab[h].id = 42;
  slab[h].hops = 7;
  slab[h].in_escape = true;
  slab.free(h);
  const PacketHandle again = slab.alloc();
  ASSERT_EQ(again, h);
  EXPECT_EQ(slab[again].id, 0);
  EXPECT_EQ(slab[again].hops, 0);
  EXPECT_FALSE(slab[again].in_escape);
}

TEST(PacketSlab, ReferencesSurviveGrowth) {
  PacketSlab slab;
  const PacketHandle first = slab.alloc();
  Packet& p = slab[first];
  p.id = 12345;
  // Fill the first chunk and start a second one.
  for (PacketHandle i = 1; i <= PacketSlab::kChunkPackets; ++i)
    (void)slab.alloc();
  ASSERT_EQ(slab.chunks(), 2u);
  EXPECT_EQ(&slab[first], &p);
  EXPECT_EQ(p.id, 12345);
  p.hops = 3;
  EXPECT_EQ(slab[first].hops, 3);
}

TEST(PacketSlab, LiveCountAfterChurn) {
  PacketSlab slab;
  std::vector<PacketHandle> live;
  long expected = 0;
  long peak = 0;
  // Grow, shrink and regrow across a chunk boundary.
  for (int round = 0; round < 3; ++round) {
    for (PacketHandle i = 0; i < PacketSlab::kChunkPackets + 50; ++i) {
      live.push_back(slab.alloc());
      ++expected;
    }
    peak = std::max(peak, expected);
    for (std::size_t i = 0; i < live.size(); i += 2) {
      slab.free(live[i]);
      --expected;
    }
    std::vector<PacketHandle> kept;
    for (std::size_t i = 1; i < live.size(); i += 2) kept.push_back(live[i]);
    live = kept;
    EXPECT_EQ(slab.live(), expected);
  }
  for (const PacketHandle h : live) slab.free(h);
  EXPECT_EQ(slab.live(), 0);
  // Freed handles are reused before fresh ones, so the chunks cover the
  // peak number in flight and no more.
  const long per_chunk = static_cast<long>(PacketSlab::kChunkPackets);
  EXPECT_EQ(static_cast<long>(slab.chunks()),
            (peak + per_chunk - 1) / per_chunk);
}

TEST(PacketSlabDeathTest, DoubleFreeHitsDcheck) {
#ifdef NDEBUG
  GTEST_SKIP() << "HXSP_DCHECK is compiled out of NDEBUG builds";
#else
  PacketSlab slab;
  const PacketHandle h = slab.alloc();
  slab.free(h);
  EXPECT_DEATH(slab.free(h), "p.id != kFreedId");
#endif
}

} // namespace
} // namespace hxsp
