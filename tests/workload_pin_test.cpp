/// \file workload_pin_test.cpp
/// Pins the exact message lists of every workload generator: for each
/// workload_names() entry at 2, 7, 16 and 64 servers (rd_allreduce, which
/// needs a power of two, at 8 instead of 7) and 1 and 3 rounds, plus a
/// trace with explicit dependencies and the three-way default-wiring case,
/// every message's (src, dst, packets, phase) and its dependency list in
/// order are hashed with FNV-1a 64 and compared with a committed literal.
/// The literals were recorded from the per-message dependency vectors that
/// preceded the flat MessageList, so they also prove the two forms
/// equivalent. Dependency order drives release order, and with it every
/// simulated result, so a change to it fails here first.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "workload/trace.hpp"
#include "workload/workload.hpp"

namespace hxsp {
namespace {

/// FNV-1a 64 over little-endian integers.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void i32(std::int32_t v) {
    const auto u = static_cast<std::uint32_t>(v);
    for (int k = 0; k < 4; ++k) byte(static_cast<std::uint8_t>(u >> (8 * k)));
  }
};

/// Feeds the message count, then each message's fields, dependency count
/// and dependencies, in message order.
void hash_list(Fnv1a& f, const MessageList& msgs) {
  f.i32(static_cast<std::int32_t>(msgs.size()));
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const Message& m = msgs[i];
    f.i32(m.src);
    f.i32(m.dst);
    f.i32(m.packets);
    f.i32(m.phase);
    f.i32(static_cast<std::int32_t>(msgs.deps(i).size()));
    for (const std::int32_t d : msgs.deps(i)) f.i32(d);
  }
}

std::string hex(std::uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxULL",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Hash of \p name's lists over every pinned server count and round count.
std::uint64_t generator_hash(const std::string& name) {
  Fnv1a f;
  const std::vector<ServerId> sizes =
      name == "rd_allreduce" ? std::vector<ServerId>{2, 8, 16, 64}
                             : std::vector<ServerId>{2, 7, 16, 64};
  for (const ServerId n : sizes) {
    for (const int rounds : {1, 3}) {
      WorkloadParams p;
      p.name = name;
      p.msg_packets = 3;
      p.rounds = rounds;
      Rng rng(7);
      const MessageList msgs = make_workload(p)->build(n, rng);
      validate_workload(msgs, n);
      hash_list(f, msgs);
    }
  }
  return f.h;
}

TEST(WorkloadPin, EveryGenerator) {
  struct Pin {
    const char* name;
    std::uint64_t hash;
  };
  const std::vector<Pin> pins = {
      {"alltoall", 0x56a9e98df929953bULL},
      {"ring_allreduce", 0xf017ac4fc13dba36ULL},
      {"rd_allreduce", 0x646ebd2701ea25c2ULL},
      {"halo2d", 0x6a358310f824733fULL},
      {"halo3d", 0x5ff6beb239448fe6ULL},
      {"shuffle", 0xd7d855332d343eefULL},
      {"random", 0x3ce17680418a0109ULL},
  };
  const std::vector<std::string> names = workload_names();
  ASSERT_EQ(pins.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_EQ(names[i], pins[i].name);
    const std::uint64_t got = generator_hash(names[i]);
    EXPECT_EQ(got, pins[i].hash) << names[i] << " now hashes to " << hex(got);
  }
}

TEST(WorkloadPin, TraceWithExplicitDeps) {
  const std::string text =
      "{\"src\":0,\"dst\":5,\"packets\":4,\"phase\":0}\n"
      "{\"src\":5,\"dst\":0,\"packets\":2,\"phase\":1,\"deps\":[0]}\n"
      "{\"src\":3,\"dst\":1,\"packets\":1,\"phase\":1,\"deps\":[1,0]}\n"
      "{\"src\":1,\"dst\":3,\"packets\":7,\"phase\":2,\"deps\":[2,0,1]}\n";
  const MessageList msgs = trace_from_jsonl(text);
  validate_workload(msgs, 6);
  EXPECT_EQ(trace_to_jsonl(msgs), text);
  Fnv1a f;
  hash_list(f, msgs);
  EXPECT_EQ(f.h, 0x02fcbc5b4eb0c941ULL) << "now hashes to " << hex(f.h);
}

TEST(WorkloadPin, WiresInboundThenOwnSendsThenNothing) {
  // The case of WorkloadDeps.WiresInboundThenOwnSendsThenNothing.
  MessageList msgs;
  for (const Message& m : std::vector<Message>{{0, 1, 1, 0},
                                               {2, 1, 1, 0},
                                               {3, 2, 1, 0},
                                               {1, 0, 1, 1},
                                               {3, 0, 1, 1},
                                               {4, 0, 1, 1}})
    msgs.push_back(m);
  wire_phase_deps(msgs);
  Fnv1a f;
  hash_list(f, msgs);
  EXPECT_EQ(f.h, 0xa70a282ea278dd37ULL) << "now hashes to " << hex(f.h);
}

} // namespace
} // namespace hxsp
