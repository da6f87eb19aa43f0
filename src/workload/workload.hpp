#pragma once
/// \file workload.hpp
/// Message-level workload generation.
///
/// The paper evaluates synthetic per-cycle rate traffic plus one batch
/// completion mode; real HPC/ML traffic is *message*-structured and
/// phase-dependent, which is exactly where fault-induced tail latency
/// hurts. A Workload describes a whole application exchange as a
/// MessageList (src server, dst server, size in packets, phase) with a
/// dependency graph grouped into phases: a message becomes eligible for
/// injection only when every message it depends on has been fully
/// consumed at its destination. The engine (see workload/run.hpp and the
/// Server message-queue mode) then answers questions the rate modes
/// cannot: "how much slower does an all-reduce or a halo exchange finish
/// with 8% of the links down?".
///
/// A MessageList is flat: one 16-byte Message record per message and one
/// compressed-sparse-row (CSR) table of dependency indices, so a list
/// costs 20 bytes per message plus 4 per dependency, in three heap
/// blocks however many messages it holds. The default wiring
/// (wire_phase_deps) and the dependents table (workload_dependents) are
/// built by counting sorts in O(messages + servers + phases) memory.
///
/// Built-in generators cover the classic collective/stencil shapes
/// (all-to-all, ring and recursive-doubling all-reduce, 2D/3D halo
/// exchange, permutation shuffle, random graph); arbitrary applications
/// replay through the JSONL trace loader in workload/trace.hpp.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/fields.hpp"
#include "util/rng.hpp"
#include "util/span.hpp"
#include "util/types.hpp"

namespace hxsp {

/// One application-level message: \p packets network packets from server
/// \p src to server \p dst. \p phase groups messages for reporting
/// (per-phase completion cycles) and drives the default dependency
/// wiring. Its dependencies live in the MessageList that holds it.
struct Message {
  ServerId src = 0;
  ServerId dst = 0;
  std::int32_t packets = 1;
  std::int32_t phase = 0;
};
static_assert(sizeof(Message) == 16, "a Message record is 16 bytes");

/// Field table: equality (util/fields.hpp).
inline const auto& field_table(const Message*) {
  static const auto table = std::make_tuple(
      field("src", &Message::src), field("dst", &Message::dst),
      field("packets", &Message::packets), field("phase", &Message::phase));
  return table;
}

inline bool operator==(const Message& a, const Message& b) {
  return fields_equal(a, b);
}
inline bool operator!=(const Message& a, const Message& b) { return !(a == b); }

/// A workload's messages and their dependency graph. Message i's
/// dependencies (indices of messages that must be fully consumed before
/// it may start) are deps(i), in the order they were given: the order
/// every consumer walks them, so it is part of a workload's identity.
class MessageList {
 public:
  MessageList() = default;

  /// Bare records under the default phase wiring: the list
  /// wire_phase_deps makes of them. Implicit, together with the
  /// narrowing below, so code that spells a workload as
  /// std::vector<Message> (benchmark/hxsp_bench.cpp) runs the same
  /// messages and dependencies.
  MessageList(std::vector<Message> records);  // NOLINT(google-explicit-constructor)

  /// The records alone. Aborts unless the dependencies are the default
  /// phase wiring, which the records imply: explicit trace dependencies
  /// must not be dropped silently.
  operator std::vector<Message>() &&;  // NOLINT(google-explicit-constructor)

  std::size_t size() const { return msgs_.size(); }
  bool empty() const { return msgs_.empty(); }
  const Message& operator[](std::size_t i) const { return msgs_[i]; }
  std::vector<Message>::const_iterator begin() const { return msgs_.begin(); }
  std::vector<Message>::const_iterator end() const { return msgs_.end(); }

  /// Dependencies of message \p i.
  ConstSpan<std::int32_t> deps(std::size_t i) const {
    return {deps_.data() + dep_offsets_[i], deps_.data() + dep_offsets_[i + 1]};
  }
  /// Dependency entries over all messages.
  std::size_t num_deps() const { return deps_.size(); }

  /// True when the dependencies are wire_phase_deps' (and no message was
  /// appended since).
  bool phase_wired() const { return phase_wired_; }

  void reserve(std::size_t messages) {
    msgs_.reserve(messages);
    dep_offsets_.reserve(messages + 1);
  }

  /// Appends \p m without dependencies.
  void push_back(const Message& m) {
    msgs_.push_back(m);
    dep_offsets_.push_back(dep_offsets_.back());
    phase_wired_ = false;
  }
  /// Appends \p m depending on \p deps, kept in the given order.
  void push_back(const Message& m, const std::vector<std::int32_t>& deps);

  bool operator==(const MessageList& o) const {
    return msgs_ == o.msgs_ && dep_offsets_ == o.dep_offsets_ &&
           deps_ == o.deps_;
  }
  bool operator!=(const MessageList& o) const { return !(*this == o); }

 private:
  friend void wire_phase_deps(MessageList& msgs);

  std::vector<Message> msgs_;
  std::vector<std::uint32_t> dep_offsets_{0};  ///< size() + 1 entries
  std::vector<std::int32_t> deps_;
  bool phase_wired_ = false;
};

/// Reverse of a MessageList's dependency table, also CSR: the messages
/// that depend on message i, in ascending message index.
struct Dependents {
  std::vector<std::uint32_t> offsets;  ///< messages + 1 entries
  std::vector<std::int32_t> items;

  ConstSpan<std::int32_t> of(std::size_t i) const {
    return {items.data() + offsets[i], items.data() + offsets[i + 1]};
  }
};

/// Builds the dependents table of \p msgs, whose dependency indices must
/// lie in [0, size()). Shared by validate_workload and WorkloadRun.
Dependents workload_dependents(const MessageList& msgs);

/// Parameters selecting and shaping a workload. Pure data: rides inside
/// TaskSpec and round-trips losslessly through JSON, so workload sweeps
/// shard/checkpoint/merge like every other task kind.
struct WorkloadParams {
  std::string name = "alltoall";  ///< see make_workload()
  int msg_packets = 4;            ///< packets per message
  int rounds = 1;                 ///< repetitions of the base exchange
  int fanout = 2;                 ///< out-degree of the "random" workload
  std::string trace;              ///< JSONL path (name == "trace")
};

/// Field table: JSON keys, equality (util/fields.hpp).
inline const auto& field_table(const WorkloadParams*) {
  using S = WorkloadParams;
  static const auto table = std::make_tuple(
      field("name", &S::name), field("msg_packets", &S::msg_packets),
      field("rounds", &S::rounds), field("fanout", &S::fanout),
      field("trace", &S::trace));
  return table;
}

inline bool operator==(const WorkloadParams& a, const WorkloadParams& b) {
  return fields_equal(a, b);
}
inline bool operator!=(const WorkloadParams& a, const WorkloadParams& b) {
  return !(a == b);
}

/// Interface implemented by every workload generator.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Short identifier, e.g. "alltoall", "ring_allreduce", "trace".
  virtual std::string name() const = 0;

  /// Builds the full message list for \p n servers, dependencies wired,
  /// valid for validate_workload against \p n: the generators by
  /// construction (tests/workload_pin_test.cpp validates each), the trace
  /// replay by validating its input before wiring it, so callers do not
  /// validate again. \p rng is drawn from only by randomized workloads
  /// (shuffle, random); the structured collectives are deterministic in n.
  virtual MessageList build(ServerId n, Rng& rng) const = 0;
};

/// Factory: builds the workload selected by \p params.
///
/// Recognised names: alltoall (staged ring schedule: phase r sends to
/// (i+r+1) mod n), ring_allreduce (reduce-scatter + all-gather,
/// 2*(n-1) phases of neighbour chunks), rd_allreduce (recursive
/// doubling, log2(n) pairwise exchange phases; needs a power-of-two
/// server count), halo2d / halo3d (torus stencil halo exchange on the
/// largest balanced server grid), shuffle (a fresh random permutation
/// per phase), random (each server sends `fanout` random messages per
/// phase), trace (JSONL replay from params.trace).
std::unique_ptr<Workload> make_workload(const WorkloadParams& params);

/// Built-in generator names accepted by make_workload (excludes "trace",
/// which additionally needs a file), for CLI help and sweeps.
std::vector<std::string> workload_names();

/// Default dependency wiring, shared by the generators and the trace
/// loader; replaces every dependency list. A phase-p message from server
/// s depends on every phase-(p-1) message *received by* s (the data it
/// needs before it can send), or — when s receives nothing in phase p-1 —
/// on s's own phase-(p-1) sends, or on nothing when s was idle. Messages
/// in phase 0 get no deps; each list is in message order. Time and
/// memory are O(messages + servers + phases); endpoints and phases must
/// be non-negative and phases below the message count (checked), and the
/// largest endpoint sizes the server tables, so an untrusted list is
/// validated first.
void wire_phase_deps(MessageList& msgs);

/// Sanity-checks a message list against \p n servers: endpoints in
/// range, src != dst, positive sizes, phases below the message count,
/// dep indices valid, and the dependency graph acyclic (every message
/// eventually schedulable). Aborts (HXSP_CHECK) on violation — a
/// malformed trace must not silently deadlock a simulation.
void validate_workload(const MessageList& msgs, ServerId n);

/// Number of phases spanned (max phase + 1; 0 for an empty list).
int workload_num_phases(const MessageList& msgs);

/// Total network packets the workload injects.
long workload_total_packets(const MessageList& msgs);

} // namespace hxsp
