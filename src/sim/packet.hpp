#pragma once
/// \file packet.hpp
/// The unit of simulated traffic: one message = one packet of
/// `SimConfig::packet_length` phits (the paper simulates 16-phit messages).
///
/// Routing-algorithm state travels in the packet "header": hop counters,
/// the Valiant intermediate, the Omnidimensional deroute budget, and the
/// SurePath escape flags. Buffer-position timestamps (head/tail arrival in
/// the *current* buffer) implement virtual cut-through at packet
/// granularity.
///
/// Packets live in their Network's PacketSlab and move between buffers as
/// 32-bit handles, so every queue slot, staged transmission and Consume
/// event holds 4 bytes instead of a pointer.

#include <cstdint>
#include <memory>
#include <vector>

#include "util/check.hpp"
#include "util/types.hpp"

namespace hxsp {

/// A packet in flight. Held by exactly one buffer (or link) at a time.
struct Packet {
  std::int64_t id = 0;          ///< unique per simulation
  ServerId dst_server = kInvalid;
  SwitchId src_switch = kInvalid;
  SwitchId dst_switch = kInvalid;

  Cycle created = 0;            ///< generation time (enqueue at server)
  std::int32_t msg = kInvalid;  ///< message id (-1: rate mode)

  // --- cut-through position in the current buffer -----------------------
  Cycle buf_head = 0;           ///< cycle the head phit arrived/arrives
  Cycle buf_tail = 0;           ///< cycle the tail phit arrives

  // --- routing-algorithm header state ------------------------------------
  SwitchId valiant_mid = kInvalid; ///< Valiant intermediate switch
  bool valiant_phase2 = false;     ///< past the intermediate?
  std::uint16_t hops = 0;          ///< switch-to-switch hops taken
  std::uint8_t deroutes = 0;       ///< non-minimal hops taken (Omnidimensional)
  Vc cur_vc = 0;                   ///< VC the packet currently occupies
  bool in_escape = false;          ///< currently on a CEsc virtual channel
  bool escape_gone_down = false;   ///< strict-phase escape: took a Down hop
};
// Byte budget: a slab chunk holds PacketSlab::kChunkPackets of these, and a
// saturated fabric needs one per occupied buffer slot.
static_assert(sizeof(Packet) <= 80, "Packet grew past its budget");

/// Names one live packet of a PacketSlab: chunk << kChunkBits | slot.
/// Handles are reused once freed, so nothing may key on one beyond the
/// packet's lifetime (Packet::id is the unique name).
using PacketHandle = std::uint32_t;

/// Every packet in flight of one Network. Packets sit in fixed-size chunks
/// that never move, so a Packet& stays valid until its handle is freed,
/// and chunks are added only on demand: memory tracks the peak number of
/// packets in flight, not the buffer bound. Freed handles are reused
/// last-in first-out. alloc() and free() run only on the serial step path;
/// concurrent readers (the step pool's link workers) only read packets.
class PacketSlab {
 public:
  static constexpr unsigned kChunkBits = 12;
  static constexpr PacketHandle kChunkPackets = PacketHandle{1} << kChunkBits;

  /// A fresh default-constructed packet.
  PacketHandle alloc() {
    PacketHandle h = fresh_;
    if (!free_.empty()) {
      h = free_.back();
      free_.pop_back();
    } else {
      if ((h & (kChunkPackets - 1)) == 0) add_chunk();
      ++fresh_;
    }
    (*this)[h] = Packet{};
    ++live_;
    return h;
  }

  /// Returns \p h's packet to the slab; \p h must be live.
  void free(PacketHandle h) {
#ifndef NDEBUG
    Packet& p = (*this)[h];
    HXSP_DCHECK(p.id != kFreedId);
    p.id = kFreedId;
#endif
    free_.push_back(h);
    --live_;
  }

  Packet& operator[](PacketHandle h) {
    HXSP_DCHECK(h < fresh_);
    return chunks_[h >> kChunkBits][h & (kChunkPackets - 1)];
  }
  const Packet& operator[](PacketHandle h) const {
    HXSP_DCHECK(h < fresh_);
    return chunks_[h >> kChunkBits][h & (kChunkPackets - 1)];
  }

  /// Packets allocated and not yet freed.
  long live() const { return live_; }

  /// Chunks allocated so far (memory-footprint diagnostics).
  std::size_t chunks() const { return chunks_.size(); }

 private:
  /// Packet::id of a freed slot in Debug builds, so a double free trips.
  static constexpr std::int64_t kFreedId = -1;

  void add_chunk() {
    // Handles stay below 2^31, so a Consume event can carry one in int32.
    HXSP_CHECK_MSG(chunks_.size() < (std::size_t{1} << (31 - kChunkBits)),
                   "packet slab: more than 2^31 packets in flight");
    chunks_.push_back(std::make_unique<Packet[]>(kChunkPackets));
  }

  std::vector<std::unique_ptr<Packet[]>> chunks_;
  std::vector<PacketHandle> free_; ///< freed handles, top = next reused
  PacketHandle fresh_ = 0;         ///< handles below this were ever issued
  long live_ = 0;
};

} // namespace hxsp
