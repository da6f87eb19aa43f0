#pragma once
/// \file trace.hpp
/// Deterministically sampled per-packet path tracing.
///
/// A PacketTracer records a (cycle, router, port, VC, event) hop stream
/// for the packets whose id is a multiple of `SimConfig::trace_sample`.
/// Sampling keys on packet ids — never an RNG, never a clock — so the
/// recorded trace is part of the engine's bit-identity contract: the
/// same spec produces the same hops at every worker count, shard split
/// and step-thread count. Exporters turn the hop streams into Chrome
/// `chrome://tracing` / Perfetto JSON (one track per packet) and a
/// line-per-hop JSONL for diffing.

#include <cstdint>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/fields.hpp"
#include "util/types.hpp"

namespace hxsp {

/// What happened to the packet at this hop.
enum class TraceEvent : std::uint8_t {
  kInject = 0, ///< first phit left the source server onto its switch
  kArrive = 1, ///< head phit arrived in an input VC buffer
  kGrant = 2,  ///< allocator granted an output (port is the output port)
  kEject = 3,  ///< tail phit consumed at the destination server
};

/// Stable lowercase name ("inject", "arrive", "grant", "eject").
const char* trace_event_name(TraceEvent e);

/// One recorded hop of a sampled packet.
struct TraceHop {
  Cycle cycle = 0;
  std::int64_t packet = 0; ///< packet id (id % sample == 0 by contract)
  SwitchId node = kInvalid;
  Port port = kInvalid;
  Vc vc = 0;
  TraceEvent event = TraceEvent::kInject;
};

/// Field table: equality (util/fields.hpp).
inline const auto& field_table(const TraceHop*) {
  static const auto table = std::make_tuple(
      field("cycle", &TraceHop::cycle), field("packet", &TraceHop::packet),
      field("node", &TraceHop::node), field("port", &TraceHop::port),
      field("vc", &TraceHop::vc), field("event", &TraceHop::event));
  return table;
}

inline bool operator==(const TraceHop& a, const TraceHop& b) {
  return fields_equal(a, b);
}

/// Per-Network hop recorder. Constructed only when
/// `SimConfig::trace_sample > 0`; record() is called behind the owner's
/// `if (tracer_)` gate from serial phases only.
class PacketTracer {
 public:
  /// Hard cap on recorded hops per Network; beyond it hops are counted
  /// as dropped instead of recorded, deterministically (the cut-off
  /// depends only on the hop sequence, which is itself deterministic).
  static constexpr std::size_t kMaxHops = std::size_t{1} << 20;

  explicit PacketTracer(int sample) : sample_(sample) {
    HXSP_CHECK(sample >= 1);
  }

  /// True when packet \p id is in the sample (id % k == 0).
  bool sampled(std::int64_t id) const { return id % sample_ == 0; }

  void record(TraceEvent event, Cycle cycle, std::int64_t packet,
              SwitchId node, Port port, Vc vc) {
    if (packet % sample_ != 0) return;
    if (hops_.size() >= kMaxHops) {
      ++dropped_;
      return;
    }
    hops_.push_back(TraceHop{cycle, packet, node, port, vc, event});
  }

  const std::vector<TraceHop>& hops() const { return hops_; }
  std::int64_t dropped() const { return dropped_; }
  int sample() const { return sample_; }

 private:
  int sample_;
  std::int64_t dropped_ = 0;
  std::vector<TraceHop> hops_;
};

/// One task's hop stream, labelled for the exporters.
struct TaskTrace {
  std::string task_id;
  const std::vector<TraceHop>* hops = nullptr;
};

/// Chrome trace-event JSON ({"traceEvents": [...]}): one process per
/// task, one thread track per sampled packet, one 1-cycle "X" slice per
/// hop (ts = cycle, interpreted as microseconds by the viewer). Loads in
/// chrome://tracing and https://ui.perfetto.dev.
std::string trace_chrome_json(const std::vector<TaskTrace>& tasks);

/// One JSON object per line per hop — stable field order, so two trace
/// files can be diffed line by line.
std::string trace_jsonl(const std::vector<TaskTrace>& tasks);

} // namespace hxsp
