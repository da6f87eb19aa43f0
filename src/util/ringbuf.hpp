#pragma once
/// \file ringbuf.hpp
/// Bounded FIFO rings carved out of one shared slab, plus the pooled
/// chunk rings the event wheel's slots live in.
///
/// The engine's packet queues (router input/output VCs, server injection
/// queues) are all bounded by construction — credit-based flow control
/// caps an input FIFO at input_buffer_packets, the grant check caps an
/// output FIFO at output_buffer_packets, and the server queue at
/// server_queue_packets. Each owner therefore carves all of its queues
/// out of one RingSlab: a router holds one slab for its input VCs and one
/// for its output VCs, the network one for every server queue. Their
/// slots hold 4-byte packet handles (sim/packet.hpp), not pointers. A queue
/// is a 4-byte Ring header beside its owner's other per-queue state, and
/// push/pop/front are a couple of arithmetic ops on a power-of-two slice
/// of the slab. At a million servers a heap block per queue would
/// dominate both the engine's footprint and the Network's build time.
///
/// Capacity is fixed by reset() (called once when the owner is built
/// from its SimConfig); exceeding it is a logic error (HXSP_DCHECK),
/// never a reallocation.
///
/// The event wheel has the opposite shape: 64 slots whose sizes swing
/// with load and are unbounded in principle. Giving each slot its own
/// growing vector means 64 independent high-water allocations that never
/// shrink; PooledRing instead chains fixed-size chunks drawn from one
/// shared ChunkPool, so the wheel's total footprint tracks the number of
/// events actually in flight (one cycle's spike is the next cycle's free
/// chunks) and a slot scan walks cache-dense 64-item chunks.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "util/check.hpp"

namespace hxsp {

/// Fixed-capacity FIFO rings carved out of one contiguous slab.
///
/// A ring is only its 16-bit head index and length (Ring, 4 bytes), kept
/// by the ring's owner beside the rest of its per-queue state; ring r's
/// slots are the r-th power-of-two slice of the slab, indexed with a
/// mask. So N bounded queues cost one allocation and 4 bytes of header
/// each, instead of N allocations and N heap headers. Each call names
/// the ring by its index and its header; the slab itself knows nothing
/// of which rings are in use. Move-only when T is move-only.
template <typename T>
class RingSlab {
 public:
  /// Head index and length of one ring, stored by the queue's owner.
  struct Ring {
    std::uint16_t head = 0;
    std::uint16_t size = 0;

    bool empty() const { return size == 0; }
  };

  /// Largest per-ring capacity the 16-bit indices can address.
  static constexpr int kMaxCapacity = 1 << 15;

  RingSlab() = default;

  /// (Re)allocates the slab for \p rings rings of \p capacity elements
  /// each (slots per ring rounded up to a power of two). Any previous
  /// slab and its elements are destroyed; the owners' Ring headers must
  /// start again from Ring{}.
  void reset(std::size_t rings, int capacity) {
    HXSP_CHECK(capacity > 0 && capacity <= kMaxCapacity);
    unsigned shift = 0;
    while ((1 << shift) < capacity) ++shift;
    shift_ = shift;
    mask_ = (1u << shift) - 1;
    cap_ = capacity;
    slots_ = std::make_unique<T[]>(rings << shift);
  }

  /// Elements one ring can hold.
  int capacity() const { return cap_; }

  /// Slab slots reserved per ring (capacity rounded up to a power of 2).
  int slots_per_ring() const { return static_cast<int>(mask_) + 1; }

  T& front(std::size_t r, Ring q) {
    HXSP_DCHECK(q.size > 0);
    return slot(r, q.head);
  }
  const T& front(std::size_t r, Ring q) const {
    HXSP_DCHECK(q.size > 0);
    return slot(r, q.head);
  }

  /// i-th element of ring \p r from its front (0 = front()).
  T& at(std::size_t r, Ring q, int i) {
    HXSP_DCHECK(i >= 0 && i < q.size);
    return slot(r, q.head + static_cast<unsigned>(i));
  }

  void push_back(std::size_t r, Ring& q, T v) {
    HXSP_DCHECK(q.size < cap_);
    slot(r, q.head + q.size) = std::move(v);
    ++q.size;
  }

  /// Removes and returns the front element of ring \p r.
  T pop_front(std::size_t r, Ring& q) {
    HXSP_DCHECK(q.size > 0);
    T v = std::move(slot(r, q.head));
    // uint16 wrap is harmless: the slot count divides 2^16.
    q.head = static_cast<std::uint16_t>(q.head + 1);
    --q.size;
    return v;
  }

  /// Destroys every element queued in ring \p r.
  void clear(std::size_t r, Ring& q) {
    while (q.size > 0) (void)pop_front(r, q);
  }

 private:
  T& slot(std::size_t r, unsigned i) {
    return slots_[(r << shift_) + (i & mask_)];
  }
  const T& slot(std::size_t r, unsigned i) const {
    return slots_[(r << shift_) + (i & mask_)];
  }

  std::unique_ptr<T[]> slots_;
  unsigned shift_ = 0;
  unsigned mask_ = 0;
  int cap_ = 0;
};

/// Freelist of fixed-size chunks shared by every PooledRing attached to
/// it. Chunks released by one ring (an event-wheel slot drained this
/// cycle) are immediately reusable by any other, so total allocation
/// tracks peak *simultaneous* occupancy across all rings rather than the
/// sum of per-ring high-water marks. Single-threaded by design: acquire/
/// release happen only on the serial step path (workers only read
/// already-built chunks), matching the engine's determinism contract.
template <typename T>
class ChunkPool {
  static_assert(std::is_trivially_destructible_v<T>,
                "ChunkPool recycles raw chunks; element destructors would "
                "never run");

 public:
  static constexpr int kChunkItems = 64;

  struct Chunk {
    Chunk* next = nullptr;
    int count = 0;
    T items[kChunkItems];
  };

  ChunkPool() = default;
  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;
  ~ChunkPool() {
    while (free_) {
      Chunk* c = free_;
      free_ = c->next;
      delete c;
    }
  }

  Chunk* acquire() {
    if (free_ != nullptr) {
      Chunk* c = free_;
      free_ = c->next;
      c->next = nullptr;
      c->count = 0;
      return c;
    }
    ++allocated_;
    return new Chunk();
  }

  void release(Chunk* c) {
    HXSP_DCHECK(c != nullptr);
    c->count = 0;
    c->next = free_;
    free_ = c;
  }

  /// Chunks ever allocated (free + in use) — memory-footprint telemetry.
  long allocated() const { return allocated_; }

 private:
  Chunk* free_ = nullptr;
  long allocated_ = 0;
};

/// Unbounded FIFO over a chain of pooled chunks. push_back appends at the
/// tail chunk; for_each walks front to back in insertion order; clear
/// returns every chunk to the pool in O(chunks). There is no pop — the
/// event wheel's usage pattern is append-all, scan-all, clear — which
/// keeps the per-push cost to one bounds check and one store.
template <typename T>
class PooledRing {
 public:
  using Pool = ChunkPool<T>;
  using Chunk = typename Pool::Chunk;

  PooledRing() = default;
  PooledRing(const PooledRing&) = delete;
  PooledRing& operator=(const PooledRing&) = delete;
  PooledRing(PooledRing&& o) noexcept
      : pool_(o.pool_), head_(o.head_), tail_(o.tail_), size_(o.size_) {
    o.head_ = o.tail_ = nullptr;
    o.size_ = 0;
  }
  PooledRing& operator=(PooledRing&& o) noexcept {
    if (this != &o) {
      clear();
      pool_ = o.pool_;
      head_ = o.head_;
      tail_ = o.tail_;
      size_ = o.size_;
      o.head_ = o.tail_ = nullptr;
      o.size_ = 0;
    }
    return *this;
  }
  ~PooledRing() { clear(); }

  /// Binds the ring to its chunk source. Must happen before the first
  /// push; the pool must outlive the ring.
  void attach(Pool* pool) {
    HXSP_DCHECK(head_ == nullptr);
    pool_ = pool;
  }

  bool empty() const { return size_ == 0; }
  int size() const { return size_; }

  void push_back(const T& v) {
    if (tail_ == nullptr || tail_->count == Pool::kChunkItems) grow();
    tail_->items[tail_->count++] = v;
    ++size_;
  }

  /// Visits every element in insertion order. Safe to call concurrently
  /// from multiple threads as long as no push/clear overlaps.
  template <typename F>
  void for_each(F&& f) const {
    for (const Chunk* c = head_; c != nullptr; c = c->next)
      for (int i = 0; i < c->count; ++i) f(c->items[i]);
  }

  /// Releases every chunk back to the pool.
  void clear() {
    while (head_ != nullptr) {
      Chunk* c = head_;
      head_ = c->next;
      pool_->release(c);
    }
    tail_ = nullptr;
    size_ = 0;
  }

 private:
  void grow() {
    HXSP_DCHECK(pool_ != nullptr);
    Chunk* c = pool_->acquire();
    if (tail_ != nullptr)
      tail_->next = c;
    else
      head_ = c;
    tail_ = c;
  }

  Pool* pool_ = nullptr;
  Chunk* head_ = nullptr;
  Chunk* tail_ = nullptr;
  int size_ = 0;
};

} // namespace hxsp
