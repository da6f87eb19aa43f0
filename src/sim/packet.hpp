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

#include <cstdint>
#include <memory>

#include "util/types.hpp"

namespace hxsp {

/// A packet in flight. Owned by exactly one buffer (or link) at a time.
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
// Byte budget: every packet in flight is one heap block of this size, and
// a saturated fabric holds one per occupied buffer slot.
static_assert(sizeof(Packet) <= 80, "Packet grew past its budget");

/// Owning pointer used when moving packets between buffers.
using PacketPtr = std::unique_ptr<Packet>;

} // namespace hxsp
