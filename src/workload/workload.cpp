/// \file workload.cpp
/// Built-in workload generators and the shared dependency machinery.

#include "workload/workload.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "workload/trace.hpp"

namespace hxsp {

int workload_num_phases(const std::vector<Message>& msgs) {
  int top = -1;
  for (const Message& m : msgs) top = std::max(top, m.phase);
  return top + 1;
}

long workload_total_packets(const std::vector<Message>& msgs) {
  long total = 0;
  for (const Message& m : msgs) total += m.packets;
  return total;
}

void wire_phase_deps(std::vector<Message>& msgs) {
  const int phases = workload_num_phases(msgs);
  if (phases <= 1) return;
  ServerId n = 0;
  for (const Message& m : msgs) n = std::max(n, std::max(m.src, m.dst) + 1);

  // inbox[p*n + s] / outbox[p*n + s]: indices of phase-p messages received
  // (resp. sent) by server s, in message order — so the wired dep lists
  // are deterministic for a deterministic generator.
  const std::size_t cells =
      static_cast<std::size_t>(phases) * static_cast<std::size_t>(n);
  std::vector<std::vector<std::int32_t>> inbox(cells), outbox(cells);
  auto cell = [n](int phase, ServerId s) {
    return static_cast<std::size_t>(phase) * static_cast<std::size_t>(n) +
           static_cast<std::size_t>(s);
  };
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    inbox[cell(msgs[i].phase, msgs[i].dst)].push_back(
        static_cast<std::int32_t>(i));
    outbox[cell(msgs[i].phase, msgs[i].src)].push_back(
        static_cast<std::int32_t>(i));
  }
  for (Message& m : msgs) {
    if (m.phase == 0) continue;
    const auto& in = inbox[cell(m.phase - 1, m.src)];
    m.deps = in.empty() ? outbox[cell(m.phase - 1, m.src)] : in;
  }
}

void validate_workload(const std::vector<Message>& msgs, ServerId n) {
  std::vector<std::int32_t> pending(msgs.size(), 0);
  std::vector<std::vector<std::int32_t>> dependents(msgs.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const Message& m = msgs[i];
    HXSP_CHECK_MSG(m.src >= 0 && m.src < n && m.dst >= 0 && m.dst < n,
                   "workload message endpoint out of range");
    HXSP_CHECK_MSG(m.src != m.dst, "workload message to self");
    HXSP_CHECK_MSG(m.packets >= 1, "workload message without packets");
    // Dense-ish phase numbering: per-phase bookkeeping (and the default
    // dependency wiring) allocates O(num_phases) state, so an absurd
    // phase value in a trace must abort here, not OOM there.
    HXSP_CHECK_MSG(m.phase >= 0 && static_cast<std::size_t>(m.phase) <
                                       msgs.size(),
                   "workload message phase out of range (phases must be "
                   "numbered below the message count)");
    for (std::int32_t d : m.deps) {
      HXSP_CHECK_MSG(d >= 0 && static_cast<std::size_t>(d) < msgs.size() &&
                         static_cast<std::size_t>(d) != i,
                     "workload dependency index invalid");
      ++pending[i];
      dependents[static_cast<std::size_t>(d)].push_back(
          static_cast<std::int32_t>(i));
    }
  }
  // Kahn: every message must become schedulable, else the run would sit
  // at zero packets in flight forever (a dependency cycle in a trace).
  std::vector<std::int32_t> ready;
  for (std::size_t i = 0; i < msgs.size(); ++i)
    if (pending[i] == 0) ready.push_back(static_cast<std::int32_t>(i));
  std::size_t scheduled = 0;
  while (!ready.empty()) {
    const std::int32_t m = ready.back();
    ready.pop_back();
    ++scheduled;
    for (std::int32_t d : dependents[static_cast<std::size_t>(m)])
      if (--pending[static_cast<std::size_t>(d)] == 0) ready.push_back(d);
  }
  HXSP_CHECK_MSG(scheduled == msgs.size(),
                 "workload dependency graph has a cycle");
}

namespace {

/// Staged all-to-all on the classic ring schedule: phase r (r in
/// [0, n-2]) sends from every server i to (i + r + 1) mod n, so each
/// phase is a contention-free permutation and the dependency wiring
/// pipelines the stages per server.
class AllToAll final : public Workload {
 public:
  explicit AllToAll(const WorkloadParams& p) : p_(p) {}
  std::string name() const override { return "alltoall"; }
  std::vector<Message> build(ServerId n, Rng&) const override {
    HXSP_CHECK_MSG(n >= 2, "alltoall needs at least 2 servers");
    std::vector<Message> msgs;
    msgs.reserve(static_cast<std::size_t>(p_.rounds) *
                 static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1));
    int phase = 0;
    for (int round = 0; round < p_.rounds; ++round)
      for (ServerId r = 1; r < n; ++r, ++phase)
        for (ServerId i = 0; i < n; ++i)
          msgs.push_back({i, (i + r) % n, p_.msg_packets, phase, {}});
    wire_phase_deps(msgs);
    return msgs;
  }

 private:
  WorkloadParams p_;
};

/// Ring all-reduce: a reduce-scatter pass then an all-gather pass, each
/// n-1 steps of one chunk to the ring successor. Step k's send by server
/// i depends (via wire_phase_deps) on receiving step k-1's chunk from
/// i-1 — the receive-before-send chain that makes ring all-reduce
/// latency-bound, and that a faulted link stretches end to end.
class RingAllReduce final : public Workload {
 public:
  explicit RingAllReduce(const WorkloadParams& p) : p_(p) {}
  std::string name() const override { return "ring_allreduce"; }
  std::vector<Message> build(ServerId n, Rng&) const override {
    HXSP_CHECK_MSG(n >= 2, "ring_allreduce needs at least 2 servers");
    std::vector<Message> msgs;
    const int steps = 2 * (n - 1);
    msgs.reserve(static_cast<std::size_t>(p_.rounds) *
                 static_cast<std::size_t>(steps) * static_cast<std::size_t>(n));
    int phase = 0;
    for (int round = 0; round < p_.rounds; ++round)
      for (int s = 0; s < steps; ++s, ++phase)
        for (ServerId i = 0; i < n; ++i)
          msgs.push_back({i, (i + 1) % n, p_.msg_packets, phase, {}});
    wire_phase_deps(msgs);
    return msgs;
  }

 private:
  WorkloadParams p_;
};

/// Recursive-doubling all-reduce: log2(n) phases; in phase k servers i
/// and i ^ 2^k exchange one message each.
class RecursiveDoubling final : public Workload {
 public:
  explicit RecursiveDoubling(const WorkloadParams& p) : p_(p) {}
  std::string name() const override { return "rd_allreduce"; }
  std::vector<Message> build(ServerId n, Rng&) const override {
    HXSP_CHECK_MSG(n >= 2 && (n & (n - 1)) == 0,
                   "rd_allreduce needs a power-of-two server count");
    std::vector<Message> msgs;
    int phase = 0;
    for (int round = 0; round < p_.rounds; ++round)
      for (ServerId bit = 1; bit < n; bit <<= 1, ++phase)
        for (ServerId i = 0; i < n; ++i)
          msgs.push_back({i, i ^ bit, p_.msg_packets, phase, {}});
    wire_phase_deps(msgs);
    return msgs;
  }

 private:
  WorkloadParams p_;
};

/// Largest divisor of \p n that is <= \p cap (>= 1).
ServerId largest_divisor_leq(ServerId n, ServerId cap) {
  ServerId best = 1;
  for (ServerId d = 1; d <= cap && d <= n; ++d)
    if (n % d == 0) best = d;
  return best;
}

/// Torus halo exchange on a balanced virtual server grid (2D or 3D):
/// each round is one phase in which every server sends a halo to each
/// distinct torus neighbour; round r+1 depends on receiving round r's
/// halos (the stencil iteration dependency).
class Halo final : public Workload {
 public:
  Halo(const WorkloadParams& p, int dims) : p_(p), dims_(dims) {}
  std::string name() const override {
    return dims_ == 3 ? "halo3d" : "halo2d";
  }
  std::vector<Message> build(ServerId n, Rng&) const override {
    HXSP_CHECK_MSG(n >= 2, "halo needs at least 2 servers");
    // Balanced factorization: gx <= gy (<= gz), each the largest divisor
    // of the remainder below its geometric mean.
    std::vector<ServerId> g;
    ServerId rest = n;
    for (int d = dims_; d > 1; --d) {
      ServerId root = 1;
      while ((root + 1) <= rest / (root + 1)) ++root;  // floor(sqrt)-ish
      ServerId side = largest_divisor_leq(
          rest, d == 3 ? cbrt_floor(rest) : root);
      g.push_back(side);
      rest /= side;
    }
    g.push_back(rest);
    std::vector<Message> msgs;
    for (int round = 0; round < p_.rounds; ++round) {
      for (ServerId i = 0; i < n; ++i) {
        // Coordinates of i in the row-major virtual grid.
        std::vector<ServerId> c(g.size());
        ServerId rem = i;
        for (std::size_t d = g.size(); d-- > 0;) {
          c[d] = rem % g[d];
          rem /= g[d];
        }
        std::vector<ServerId> dsts;
        for (std::size_t d = 0; d < g.size(); ++d) {
          for (int dir : {-1, +1}) {
            std::vector<ServerId> nc = c;
            nc[d] = (c[d] + dir + g[d]) % g[d];
            ServerId dst = 0;
            for (std::size_t k = 0; k < g.size(); ++k) dst = dst * g[k] + nc[k];
            if (dst != i &&
                std::find(dsts.begin(), dsts.end(), dst) == dsts.end())
              dsts.push_back(dst);
          }
        }
        for (ServerId dst : dsts)
          msgs.push_back({i, dst, p_.msg_packets, round, {}});
      }
    }
    wire_phase_deps(msgs);
    return msgs;
  }

 private:
  static ServerId cbrt_floor(ServerId n) {
    ServerId r = 1;
    while ((r + 1) * (r + 1) <= n / (r + 1)) ++r;
    return r;
  }

  WorkloadParams p_;
  int dims_;
};

/// Permutation shuffle: each phase draws a fresh random permutation and
/// every server sends one message along it (fixed points are skipped —
/// a server never messages itself).
class Shuffle final : public Workload {
 public:
  explicit Shuffle(const WorkloadParams& p) : p_(p) {}
  std::string name() const override { return "shuffle"; }
  std::vector<Message> build(ServerId n, Rng& rng) const override {
    HXSP_CHECK_MSG(n >= 2, "shuffle needs at least 2 servers");
    std::vector<Message> msgs;
    for (int phase = 0; phase < p_.rounds; ++phase) {
      const std::vector<std::int32_t> perm = rng.permutation(n);
      for (ServerId i = 0; i < n; ++i)
        if (perm[static_cast<std::size_t>(i)] != i)
          msgs.push_back(
              {i, perm[static_cast<std::size_t>(i)], p_.msg_packets, phase, {}});
    }
    wire_phase_deps(msgs);
    return msgs;
  }

 private:
  WorkloadParams p_;
};

/// Random communication graph: each phase every server sends `fanout`
/// messages to uniform random other servers (repeats allowed — two
/// messages between the same pair are distinct).
class RandomGraph final : public Workload {
 public:
  explicit RandomGraph(const WorkloadParams& p) : p_(p) {}
  std::string name() const override { return "random"; }
  std::vector<Message> build(ServerId n, Rng& rng) const override {
    HXSP_CHECK_MSG(n >= 2, "random workload needs at least 2 servers");
    HXSP_CHECK_MSG(p_.fanout >= 1, "random workload needs fanout >= 1");
    std::vector<Message> msgs;
    for (int phase = 0; phase < p_.rounds; ++phase) {
      for (ServerId i = 0; i < n; ++i) {
        for (int f = 0; f < p_.fanout; ++f) {
          ServerId d = static_cast<ServerId>(
              rng.next_below(static_cast<std::uint64_t>(n - 1)));
          if (d >= i) ++d;  // skip self
          msgs.push_back({i, d, p_.msg_packets, phase, {}});
        }
      }
    }
    wire_phase_deps(msgs);
    return msgs;
  }

 private:
  WorkloadParams p_;
};

/// JSONL trace replay (see workload/trace.hpp for the schema). Explicit
/// "deps" in the trace are honoured as-is; a trace with no deps at all
/// gets the default per-server phase wiring.
class TraceReplay final : public Workload {
 public:
  explicit TraceReplay(const WorkloadParams& p) : p_(p) {}
  std::string name() const override { return "trace"; }
  std::vector<Message> build(ServerId n, Rng&) const override {
    HXSP_CHECK_MSG(!p_.trace.empty(), "trace workload needs --trace=FILE");
    std::vector<Message> msgs = load_trace_file(p_.trace);
    // Validate the raw trace BEFORE the default wiring: wire_phase_deps
    // allocates per-(phase, server) state, which a hostile/typo'd phase
    // value must not be able to blow up.
    validate_workload(msgs, n);
    bool any_deps = false;
    for (const Message& m : msgs) any_deps = any_deps || !m.deps.empty();
    if (!any_deps) wire_phase_deps(msgs);
    return msgs;
  }

 private:
  WorkloadParams p_;
};

} // namespace

std::unique_ptr<Workload> make_workload(const WorkloadParams& params) {
  HXSP_CHECK_MSG(params.msg_packets >= 1, "workload needs msg_packets >= 1");
  HXSP_CHECK_MSG(params.rounds >= 1, "workload needs rounds >= 1");
  const std::string& name = params.name;
  if (name == "alltoall") return std::make_unique<AllToAll>(params);
  if (name == "ring_allreduce") return std::make_unique<RingAllReduce>(params);
  if (name == "rd_allreduce") return std::make_unique<RecursiveDoubling>(params);
  if (name == "halo2d") return std::make_unique<Halo>(params, 2);
  if (name == "halo3d") return std::make_unique<Halo>(params, 3);
  if (name == "shuffle") return std::make_unique<Shuffle>(params);
  if (name == "random") return std::make_unique<RandomGraph>(params);
  if (name == "trace") return std::make_unique<TraceReplay>(params);
  HXSP_CHECK_MSG(false, ("unknown workload: " + name).c_str());
  return nullptr;
}

std::vector<std::string> workload_names() {
  return {"alltoall", "ring_allreduce", "rd_allreduce",
          "halo2d",   "halo3d",         "shuffle",
          "random"};
}

} // namespace hxsp
