/// \file ringbuf_test.cpp
/// RingSlab (util/ringbuf.hpp): FIFO semantics, wrap-around, capacity
/// rounding, move-only element support and indexed sweeps — the contract
/// behind every packet queue in the engine — plus the slab layout itself:
/// rings sharing one slab never touch each other's slices, and owning
/// elements are destroyed on pop, clear and slab destruction. The RingBuf
/// suite keeps the
/// single-ring cases of the per-queue ring buffer the slab replaced. Also
/// ChunkPool/PooledRing, the pooled append-only FIFOs behind the event
/// wheel's slots.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/ringbuf.hpp"

namespace hxsp {
namespace {

using IntSlab = RingSlab<int>;

TEST(RingBuf, FifoOrder) {
  IntSlab slab;
  slab.reset(1, 8);
  IntSlab::Ring q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(slab.capacity(), 8);
  for (int i = 0; i < 8; ++i) slab.push_back(0, q, i);
  EXPECT_EQ(q.size, 8);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(slab.pop_front(0, q), i);
  EXPECT_TRUE(q.empty());
}

TEST(RingBuf, WrapAroundKeepsOrder) {
  IntSlab slab;
  slab.reset(1, 4);
  IntSlab::Ring q;
  int next_in = 0, next_out = 0;
  // Push/pop churn far beyond one lap of the storage (and beyond the
  // 16-bit head's own wrap).
  for (int round = 0; round < 40000; ++round) {
    while (q.size < slab.capacity()) slab.push_back(0, q, next_in++);
    const int drain = 1 + round % 4;
    for (int i = 0; i < drain && !q.empty(); ++i)
      ASSERT_EQ(slab.pop_front(0, q), next_out++);
  }
  while (!q.empty()) EXPECT_EQ(slab.pop_front(0, q), next_out++);
  EXPECT_EQ(next_in, next_out);
}

TEST(RingBuf, NonPowerOfTwoCapacity) {
  IntSlab slab;
  slab.reset(1, 5); // slots round to 8, logical capacity stays 5
  IntSlab::Ring q;
  EXPECT_EQ(slab.capacity(), 5);
  EXPECT_EQ(slab.slots_per_ring(), 8);
  for (int i = 0; i < 5; ++i) slab.push_back(0, q, i);
  EXPECT_EQ(q.size, 5);
  EXPECT_EQ(slab.pop_front(0, q), 0);
  slab.push_back(0, q, 5);
  for (int i = 1; i <= 5; ++i) EXPECT_EQ(slab.pop_front(0, q), i);
}

TEST(RingBuf, FrontAndIndexing) {
  RingSlab<std::string> slab;
  slab.reset(1, 4);
  RingSlab<std::string>::Ring q;
  slab.push_back(0, q, "a");
  slab.push_back(0, q, "b");
  slab.push_back(0, q, "c");
  EXPECT_EQ(slab.front(0, q), "a");
  EXPECT_EQ(slab.at(0, q, 0), "a");
  EXPECT_EQ(slab.at(0, q, 1), "b");
  EXPECT_EQ(slab.at(0, q, 2), "c");
  (void)slab.pop_front(0, q);
  slab.push_back(0, q, "d");
  slab.push_back(0, q, "e"); // wrapped by now
  EXPECT_EQ(slab.at(0, q, 0), "b");
  EXPECT_EQ(slab.at(0, q, 3), "e");
  // Indexed mutation is visible through pop (the on_tables_rebuilt sweep).
  slab.at(0, q, 1) = "C";
  (void)slab.pop_front(0, q);
  EXPECT_EQ(slab.front(0, q), "C");
}

TEST(RingBuf, MoveOnlyElements) {
  RingSlab<std::unique_ptr<int>> slab;
  slab.reset(1, 3);
  RingSlab<std::unique_ptr<int>>::Ring q;
  slab.push_back(0, q, std::make_unique<int>(1));
  slab.push_back(0, q, std::make_unique<int>(2));
  std::unique_ptr<int> p = slab.pop_front(0, q);
  EXPECT_EQ(*p, 1);
  EXPECT_EQ(*slab.front(0, q), 2);
  // The whole slab is movable; the Ring header stays valid with it.
  RingSlab<std::unique_ptr<int>> other = std::move(slab);
  EXPECT_EQ(q.size, 1);
  EXPECT_EQ(*other.pop_front(0, q), 2);
}

/// Counts live instances through a shared counter (moved-from: inert).
struct Probe {
  int* alive = nullptr;
  Probe() = default;
  explicit Probe(int* a) : alive(a) { ++*a; }
  Probe(Probe&& o) noexcept : alive(o.alive) { o.alive = nullptr; }
  Probe& operator=(Probe&& o) noexcept {
    if (alive) --*alive;
    alive = o.alive;
    o.alive = nullptr;
    return *this;
  }
  ~Probe() {
    if (alive) --*alive;
  }
};

TEST(RingBuf, ClearDestroysElements) {
  int alive = 0;
  RingSlab<Probe> slab;
  slab.reset(1, 4);
  RingSlab<Probe>::Ring q;
  slab.push_back(0, q, Probe(&alive));
  slab.push_back(0, q, Probe(&alive));
  slab.push_back(0, q, Probe(&alive));
  EXPECT_EQ(alive, 3);
  slab.clear(0, q);
  EXPECT_EQ(alive, 0);
  EXPECT_TRUE(q.empty());
}

TEST(RingBuf, ResetCapacityReallocates) {
  IntSlab slab;
  slab.reset(1, 2);
  IntSlab::Ring q;
  slab.push_back(0, q, 1);
  (void)slab.pop_front(0, q);
  slab.reset(1, 16);
  q = IntSlab::Ring{}; // a reset slab starts every ring afresh
  EXPECT_EQ(slab.capacity(), 16);
  for (int i = 0; i < 16; ++i) slab.push_back(0, q, i);
  EXPECT_EQ(q.size, 16);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(slab.pop_front(0, q), i);
}

// ---------------------------------------------------------------------------
// RingSlab layout: many rings in one slab.

TEST(RingSlab, CapacityThreeRoundsUpToFourSlots) {
  IntSlab slab;
  slab.reset(2, 3);
  EXPECT_EQ(slab.capacity(), 3);
  EXPECT_EQ(slab.slots_per_ring(), 4);
  IntSlab::Ring a, b;
  for (int i = 0; i < 3; ++i) slab.push_back(0, a, i);
  for (int i = 0; i < 3; ++i) slab.push_back(1, b, 10 + i);
  // Ring 1 starts at slot 4, not 3: a full ring 0 leaves it alone.
  EXPECT_EQ(&slab.front(1, b) - &slab.front(0, a), 4);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(slab.pop_front(0, a), i);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(slab.pop_front(1, b), 10 + i);
}

TEST(RingSlab, AdjacentRingsWrapWithoutTouchingNeighbours) {
  IntSlab slab;
  slab.reset(3, 3);
  IntSlab::Ring lo, mid, hi;
  // The middle ring holds sentinels while both neighbours wrap around
  // their own slices many times over.
  for (int i = 0; i < 3; ++i) slab.push_back(1, mid, -1 - i);
  int lo_in = 0, lo_out = 0, hi_in = 0, hi_out = 0;
  for (int round = 0; round < 50; ++round) {
    while (lo.size < 3) slab.push_back(0, lo, lo_in++);
    while (hi.size < 3) slab.push_back(2, hi, 1000 + hi_in++);
    for (int i = 0; i <= round % 3; ++i) {
      ASSERT_EQ(slab.pop_front(0, lo), lo_out++);
      ASSERT_EQ(slab.pop_front(2, hi), 1000 + hi_out++);
    }
    for (int i = 0; i < 3; ++i) ASSERT_EQ(slab.at(1, mid, i), -1 - i);
  }
  EXPECT_GT(lo_in, 4 * slab.slots_per_ring()); // many laps, not one
  for (int i = 0; i < 3; ++i) EXPECT_EQ(slab.pop_front(1, mid), -1 - i);
}

/// Counts live instances, so a test can see exactly when the slab
/// destroys its elements.
struct Counted {
  static int live;
  int id;
  explicit Counted(int i) : id(i) { ++live; }
  ~Counted() { --live; }
};
int Counted::live = 0;

TEST(RingSlab, OwningElementsAreDestroyed) {
  {
    RingSlab<std::unique_ptr<Counted>> slab;
    slab.reset(2, 3);
    RingSlab<std::unique_ptr<Counted>>::Ring a, b;
    for (int i = 0; i < 3; ++i)
      slab.push_back(0, a, std::make_unique<Counted>(i));
    slab.push_back(1, b, std::make_unique<Counted>(9));
    EXPECT_EQ(Counted::live, 4);
    EXPECT_EQ(slab.pop_front(0, a)->id, 0); // destroyed at end of statement
    EXPECT_EQ(Counted::live, 3);
    slab.clear(0, a);
    EXPECT_EQ(Counted::live, 1);
    // Ring 1 still holds an element: destroying the slab destroys it.
  }
  EXPECT_EQ(Counted::live, 0);
}

TEST(RingSlabDeathTest, PushOnFullRingHitsDcheck) {
#ifdef NDEBUG
  GTEST_SKIP() << "HXSP_DCHECK is compiled out of NDEBUG builds";
#else
  IntSlab slab;
  slab.reset(2, 3);
  IntSlab::Ring q;
  for (int i = 0; i < 3; ++i) slab.push_back(0, q, i);
  // The fourth element would land in the ring's spare slot; the check
  // fires before any write.
  EXPECT_DEATH(slab.push_back(0, q, 3), "q.size < cap_");
#endif
}

// ---------------------------------------------------------------------------
// ChunkPool / PooledRing — the event wheel's slot storage.

std::vector<int> collect(const PooledRing<int>& ring) {
  std::vector<int> out;
  ring.for_each([&out](const int& v) { out.push_back(v); });
  return out;
}

TEST(PooledRing, AppendScanClearOrder) {
  ChunkPool<int> pool;
  PooledRing<int> ring;
  ring.attach(&pool);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0);
  for (int i = 0; i < 10; ++i) ring.push_back(i);
  EXPECT_EQ(ring.size(), 10);
  const std::vector<int> got = collect(ring);
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], i);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(collect(ring).empty());
}

TEST(PooledRing, MultiChunkOrderPreserved) {
  // Far more items than one chunk holds: the chunk walk must concatenate
  // chunks front-to-back with no item lost, duplicated or reordered.
  ChunkPool<int> pool;
  PooledRing<int> ring;
  ring.attach(&pool);
  const int n = ChunkPool<int>::kChunkItems * 5 + 7;
  for (int i = 0; i < n; ++i) ring.push_back(i);
  EXPECT_EQ(ring.size(), n);
  const std::vector<int> got = collect(ring);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(got[i], i);
}

TEST(PooledRing, ClearRecyclesChunksAcrossRings) {
  // The wheel's 64 slots share one pool: chunks released by one slot's
  // clear() must be reused by the next slot's growth instead of newing —
  // steady-state stepping allocates nothing.
  ChunkPool<int> pool;
  PooledRing<int> a, b;
  a.attach(&pool);
  b.attach(&pool);
  const int n = ChunkPool<int>::kChunkItems * 3;
  for (int i = 0; i < n; ++i) a.push_back(i);
  const long after_fill = pool.allocated();
  EXPECT_GE(after_fill, 3);
  a.clear();
  for (int i = 0; i < n; ++i) b.push_back(i);
  EXPECT_EQ(pool.allocated(), after_fill); // all growth came from the freelist
  const std::vector<int> got = collect(b);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(got[i], i);
}

TEST(PooledRing, MoveTransfersChunks) {
  ChunkPool<int> pool;
  PooledRing<int> ring;
  ring.attach(&pool);
  for (int i = 0; i < 100; ++i) ring.push_back(i);
  PooledRing<int> moved = std::move(ring);
  EXPECT_EQ(moved.size(), 100);
  const std::vector<int> got = collect(moved);
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[i], i);
  moved.clear(); // chunks go back to the pool, not leaked
  EXPECT_TRUE(moved.empty());
}

} // namespace
} // namespace hxsp
