#pragma once
/// \file workload.hpp
/// Message-level workload generation.
///
/// The paper evaluates synthetic per-cycle rate traffic plus one batch
/// completion mode; real HPC/ML traffic is *message*-structured and
/// phase-dependent, which is exactly where fault-induced tail latency
/// hurts. A Workload describes a whole application exchange as a list of
/// Messages (src server, dst server, size in packets) with a per-server
/// dependency graph grouped into phases: a message becomes eligible for
/// injection only when every message it depends on has been fully
/// consumed at its destination. The engine (see workload/run.hpp and the
/// Server message-queue mode) then answers questions the rate modes
/// cannot: "how much slower does an all-reduce or a halo exchange finish
/// with 8% of the links down?".
///
/// Built-in generators cover the classic collective/stencil shapes
/// (all-to-all, ring and recursive-doubling all-reduce, 2D/3D halo
/// exchange, permutation shuffle, random graph); arbitrary applications
/// replay through the JSONL trace loader in workload/trace.hpp.

#include <memory>
#include <string>
#include <vector>

#include "util/fields.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace hxsp {

/// One application-level message: \p packets network packets from server
/// \p src to server \p dst, eligible once every message in \p deps has
/// been fully consumed. \p phase groups messages for reporting (per-phase
/// completion cycles) and drives the default dependency wiring.
struct Message {
  ServerId src = 0;
  ServerId dst = 0;
  int packets = 1;
  int phase = 0;
  std::vector<std::int32_t> deps;  ///< indices into the message list
};

/// Field table: equality (util/fields.hpp).
inline const auto& field_table(const Message*) {
  static const auto table = std::make_tuple(
      field("src", &Message::src), field("dst", &Message::dst),
      field("packets", &Message::packets), field("phase", &Message::phase),
      field("deps", &Message::deps));
  return table;
}

inline bool operator==(const Message& a, const Message& b) {
  return fields_equal(a, b);
}
inline bool operator!=(const Message& a, const Message& b) { return !(a == b); }

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

  /// Builds the full message list for \p n servers, dependencies wired.
  /// \p rng is drawn from only by randomized workloads (shuffle, random);
  /// the structured collectives are deterministic in n.
  virtual std::vector<Message> build(ServerId n, Rng& rng) const = 0;
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
/// loader: a phase-p message from server s depends on every phase-(p-1)
/// message *received by* s (the data it needs before it can send), or —
/// when s receives nothing in phase p-1 — on s's own phase-(p-1) sends,
/// or on nothing when s was idle. Messages in phase 0 never gain deps.
void wire_phase_deps(std::vector<Message>& msgs);

/// Sanity-checks a message list against \p n servers: endpoints in
/// range, src != dst, positive sizes, dep indices valid, and the
/// dependency graph acyclic (every message eventually schedulable).
/// Aborts (HXSP_CHECK) on violation — a malformed trace must not
/// silently deadlock a simulation.
void validate_workload(const std::vector<Message>& msgs, ServerId n);

/// Number of phases spanned (max phase + 1; 0 for an empty list).
int workload_num_phases(const std::vector<Message>& msgs);

/// Total network packets the workload injects.
long workload_total_packets(const std::vector<Message>& msgs);

} // namespace hxsp
