/// \file workload.cpp
/// Built-in workload generators and the shared dependency machinery.

#include "workload/workload.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"
#include "workload/trace.hpp"

namespace hxsp {

MessageList::MessageList(std::vector<Message> records)
    : msgs_(std::move(records)) {
  dep_offsets_.assign(msgs_.size() + 1, 0);
  wire_phase_deps(*this);
}

MessageList::operator std::vector<Message>() && {
  HXSP_CHECK_MSG(phase_wired_,
                 "a message list with explicit dependencies cannot be "
                 "narrowed to bare records");
  std::vector<Message> records = std::move(msgs_);
  *this = MessageList();
  return records;
}

void MessageList::push_back(const Message& m,
                            const std::vector<std::int32_t>& deps) {
  HXSP_CHECK_MSG(deps.size() <= std::numeric_limits<std::uint32_t>::max() -
                                    deps_.size(),
                 "message list exceeds 2^32 dependency entries");
  msgs_.push_back(m);
  deps_.insert(deps_.end(), deps.begin(), deps.end());
  dep_offsets_.push_back(static_cast<std::uint32_t>(deps_.size()));
  phase_wired_ = false;
}

int workload_num_phases(const MessageList& msgs) {
  int top = -1;
  for (const Message& m : msgs) top = std::max(top, m.phase);
  return top + 1;
}

long workload_total_packets(const MessageList& msgs) {
  long total = 0;
  for (const Message& m : msgs) total += m.packets;
  return total;
}

void wire_phase_deps(MessageList& list) {
  const std::vector<Message>& msgs = list.msgs_;
  const std::size_t m = msgs.size();
  ServerId n = 0;
  for (const Message& x : msgs) {
    HXSP_CHECK_MSG(x.src >= 0 && x.dst >= 0 && x.phase >= 0 &&
                       static_cast<std::size_t>(x.phase) < m,
                   "wire_phase_deps: negative endpoint, or phase outside "
                   "[0, messages)");
    n = std::max(n, std::max(x.src, x.dst) + 1);
  }
  const auto phases = static_cast<std::size_t>(workload_num_phases(list));

  // Stable counting sort by phase: phase q's messages are
  // by_phase[phase_start[q], phase_start[q + 1]), in message order.
  std::vector<std::uint32_t> phase_start(phases + 1, 0);
  for (const Message& x : msgs) ++phase_start[static_cast<std::size_t>(x.phase) + 1];
  for (std::size_t q = 0; q < phases; ++q) phase_start[q + 1] += phase_start[q];
  std::vector<std::int32_t> by_phase(m);
  {
    std::vector<std::uint32_t> cursor(phase_start.begin(), phase_start.end() - 1);
    for (std::size_t i = 0; i < m; ++i)
      by_phase[cursor[static_cast<std::size_t>(msgs[i].phase)]++] =
          static_cast<std::int32_t>(i);
  }

  // Within each phase, a stable counting sort by server into runs: runs[k]
  // for k in phase q's slice of [0, m) groups the slice by receiver, the
  // same slice of [m, 2m) by sender, each run in message order. The
  // server tables are indexed by server id and reset after each phase by
  // walking only that phase's messages, so they are allocated once.
  constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();
  struct Table {
    std::vector<std::uint32_t> len, end;  ///< run length; one past its end
  };
  Table in{std::vector<std::uint32_t>(static_cast<std::size_t>(n), 0),
           std::vector<std::uint32_t>(static_cast<std::size_t>(n), kUnset)};
  Table out = in;
  std::vector<std::int32_t> runs(2 * m);
  // Message j's deps are runs[dep_begin[j], + count); the count goes into
  // the offsets, which become prefix sums below.
  std::vector<std::uint32_t> dep_begin(m, 0);
  std::vector<std::uint32_t>& offsets = list.dep_offsets_;
  offsets.assign(m + 1, 0);

  auto open_run = [&](Table& t, std::size_t s, std::uint32_t& next) {
    if (t.end[s] == kUnset) {  // first of s's messages: open its run
      t.end[s] = next;
      next += t.len[s];
    }
  };
  for (std::size_t q = 0; q + 1 < phases; ++q) {
    const std::int32_t* first = by_phase.data() + phase_start[q];
    const std::int32_t* last = by_phase.data() + phase_start[q + 1];
    for (const std::int32_t* i = first; i != last; ++i) {
      const Message& x = msgs[static_cast<std::size_t>(*i)];
      ++in.len[static_cast<std::size_t>(x.dst)];
      ++out.len[static_cast<std::size_t>(x.src)];
    }
    std::uint32_t next_in = phase_start[q];
    std::uint32_t next_out = static_cast<std::uint32_t>(m) + phase_start[q];
    for (const std::int32_t* i = first; i != last; ++i) {
      const Message& x = msgs[static_cast<std::size_t>(*i)];
      open_run(in, static_cast<std::size_t>(x.dst), next_in);
      open_run(out, static_cast<std::size_t>(x.src), next_out);
    }
    // Placing advances each run's cursor to its end: the run of s is
    // [end[s] - len[s], end[s]).
    for (const std::int32_t* i = first; i != last; ++i) {
      const Message& x = msgs[static_cast<std::size_t>(*i)];
      runs[in.end[static_cast<std::size_t>(x.dst)]++] = *i;
      runs[out.end[static_cast<std::size_t>(x.src)]++] = *i;
    }
    // Phase q+1's messages depend on what their sender received in phase
    // q, or else on what it sent.
    for (std::uint32_t k = phase_start[q + 1]; k < phase_start[q + 2]; ++k) {
      const auto j = static_cast<std::size_t>(by_phase[k]);
      const auto s = static_cast<std::size_t>(msgs[j].src);
      const Table& t = in.len[s] > 0 ? in : out;
      if (t.len[s] == 0) continue;
      dep_begin[j] = t.end[s] - t.len[s];
      offsets[j + 1] = t.len[s];
    }
    for (const std::int32_t* i = first; i != last; ++i) {
      const Message& x = msgs[static_cast<std::size_t>(*i)];
      in.len[static_cast<std::size_t>(x.dst)] = 0;
      in.end[static_cast<std::size_t>(x.dst)] = kUnset;
      out.len[static_cast<std::size_t>(x.src)] = 0;
      out.end[static_cast<std::size_t>(x.src)] = kUnset;
    }
  }

  std::uint64_t total = 0;
  for (std::size_t j = 0; j < m; ++j) {
    total += offsets[j + 1];
    HXSP_CHECK_MSG(total <= std::numeric_limits<std::uint32_t>::max(),
                   "message list exceeds 2^32 dependency entries");
    offsets[j + 1] = static_cast<std::uint32_t>(total);
  }
  list.deps_.resize(static_cast<std::size_t>(total));
  for (std::size_t j = 0; j < m; ++j)
    std::copy(runs.begin() + dep_begin[j],
              runs.begin() + dep_begin[j] + (offsets[j + 1] - offsets[j]),
              list.deps_.begin() + offsets[j]);
  list.phase_wired_ = true;
}

Dependents workload_dependents(const MessageList& msgs) {
  // Counting sort of the (dependency, message) pairs by dependency; pairs
  // are visited in ascending message index, so each run stays ascending.
  const std::size_t m = msgs.size();
  Dependents d;
  d.offsets.assign(m + 1, 0);
  for (std::size_t i = 0; i < m; ++i)
    for (const std::int32_t dep : msgs.deps(i))
      ++d.offsets[static_cast<std::size_t>(dep) + 1];
  for (std::size_t k = 0; k < m; ++k) d.offsets[k + 1] += d.offsets[k];
  d.items.resize(msgs.num_deps());
  // Placing advances offsets[k] to k's end, which is k+1's start: shift
  // back by one afterwards.
  for (std::size_t i = 0; i < m; ++i)
    for (const std::int32_t dep : msgs.deps(i))
      d.items[d.offsets[static_cast<std::size_t>(dep)]++] =
          static_cast<std::int32_t>(i);
  for (std::size_t k = m; k > 0; --k) d.offsets[k] = d.offsets[k - 1];
  d.offsets[0] = 0;
  return d;
}

void validate_workload(const MessageList& msgs, ServerId n) {
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const Message& m = msgs[i];
    HXSP_CHECK_MSG(m.src >= 0 && m.src < n && m.dst >= 0 && m.dst < n,
                   "workload message endpoint out of range");
    HXSP_CHECK_MSG(m.src != m.dst, "workload message to self");
    HXSP_CHECK_MSG(m.packets >= 1, "workload message without packets");
    // Dense-ish phase numbering: WorkloadRun keeps per-phase state and the
    // default wiring's memory is O(messages + servers + phases), so an
    // absurd phase value in a trace must abort here, not OOM there.
    HXSP_CHECK_MSG(m.phase >= 0 && static_cast<std::size_t>(m.phase) <
                                       msgs.size(),
                   "workload message phase out of range (phases must be "
                   "numbered below the message count)");
    for (const std::int32_t d : msgs.deps(i))
      HXSP_CHECK_MSG(d >= 0 && static_cast<std::size_t>(d) < msgs.size() &&
                         static_cast<std::size_t>(d) != i,
                     "workload dependency index invalid");
  }
  // Kahn: every message must become schedulable, else the run would sit
  // at zero packets in flight forever (a dependency cycle in a trace).
  const Dependents dependents = workload_dependents(msgs);
  std::vector<std::uint32_t> pending(msgs.size());
  std::vector<std::int32_t> ready;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    pending[i] = static_cast<std::uint32_t>(msgs.deps(i).size());
    if (pending[i] == 0) ready.push_back(static_cast<std::int32_t>(i));
  }
  std::size_t scheduled = 0;
  while (!ready.empty()) {
    const std::int32_t m = ready.back();
    ready.pop_back();
    ++scheduled;
    for (const std::int32_t d : dependents.of(static_cast<std::size_t>(m)))
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
  MessageList build(ServerId n, Rng&) const override {
    HXSP_CHECK_MSG(n >= 2, "alltoall needs at least 2 servers");
    MessageList msgs;
    msgs.reserve(static_cast<std::size_t>(p_.rounds) *
                 static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1));
    int phase = 0;
    for (int round = 0; round < p_.rounds; ++round)
      for (ServerId r = 1; r < n; ++r, ++phase)
        for (ServerId i = 0; i < n; ++i)
          msgs.push_back({i, (i + r) % n, p_.msg_packets, phase});
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
  MessageList build(ServerId n, Rng&) const override {
    HXSP_CHECK_MSG(n >= 2, "ring_allreduce needs at least 2 servers");
    MessageList msgs;
    const int steps = 2 * (n - 1);
    msgs.reserve(static_cast<std::size_t>(p_.rounds) *
                 static_cast<std::size_t>(steps) * static_cast<std::size_t>(n));
    int phase = 0;
    for (int round = 0; round < p_.rounds; ++round)
      for (int s = 0; s < steps; ++s, ++phase)
        for (ServerId i = 0; i < n; ++i)
          msgs.push_back({i, (i + 1) % n, p_.msg_packets, phase});
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
  MessageList build(ServerId n, Rng&) const override {
    HXSP_CHECK_MSG(n >= 2 && (n & (n - 1)) == 0,
                   "rd_allreduce needs a power-of-two server count");
    MessageList msgs;
    int phase = 0;
    for (int round = 0; round < p_.rounds; ++round)
      for (ServerId bit = 1; bit < n; bit <<= 1, ++phase)
        for (ServerId i = 0; i < n; ++i)
          msgs.push_back({i, i ^ bit, p_.msg_packets, phase});
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
  MessageList build(ServerId n, Rng&) const override {
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
    MessageList msgs;
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
          msgs.push_back({i, dst, p_.msg_packets, round});
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
  MessageList build(ServerId n, Rng& rng) const override {
    HXSP_CHECK_MSG(n >= 2, "shuffle needs at least 2 servers");
    MessageList msgs;
    for (int phase = 0; phase < p_.rounds; ++phase) {
      const std::vector<std::int32_t> perm = rng.permutation(n);
      for (ServerId i = 0; i < n; ++i)
        if (perm[static_cast<std::size_t>(i)] != i)
          msgs.push_back(
              {i, perm[static_cast<std::size_t>(i)], p_.msg_packets, phase});
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
  MessageList build(ServerId n, Rng& rng) const override {
    HXSP_CHECK_MSG(n >= 2, "random workload needs at least 2 servers");
    HXSP_CHECK_MSG(p_.fanout >= 1, "random workload needs fanout >= 1");
    MessageList msgs;
    for (int phase = 0; phase < p_.rounds; ++phase) {
      for (ServerId i = 0; i < n; ++i) {
        for (int f = 0; f < p_.fanout; ++f) {
          ServerId d = static_cast<ServerId>(
              rng.next_below(static_cast<std::uint64_t>(n - 1)));
          if (d >= i) ++d;  // skip self
          msgs.push_back({i, d, p_.msg_packets, phase});
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
  MessageList build(ServerId n, Rng&) const override {
    HXSP_CHECK_MSG(!p_.trace.empty(), "trace workload needs --trace=FILE");
    MessageList msgs = load_trace_file(p_.trace);
    // Validate the raw trace BEFORE the default wiring: wire_phase_deps
    // sizes its tables by the largest server id and phase, which a
    // hostile/typo'd value must not be able to blow up.
    validate_workload(msgs, n);
    if (msgs.num_deps() == 0) wire_phase_deps(msgs);
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
