/// \file candidate_pin_test.cpp
/// Pins the exact candidate lists of every mechanism: for each factory
/// name (plus "escape" and every "@policy" variant) on a faulted 6x6 and a
/// faulted 4x4x4 HyperX, every (switch, destination) pair and a grid of
/// packet states, the (port, vc, penalty, escape, escape_down) lists —
/// one element per (port, VC), in the order the allocator visits them —
/// are hashed with FNV-1a 64 and compared with a committed literal. The
/// literals were recorded from the per-VC candidate lists that preceded the
/// port-level entries, so they also prove the two forms equivalent. Any
/// change to candidate content or order, in the routing algorithms, the VC
/// disciplines or the escape tables, changes a hash.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "routing/factory.hpp"
#include "test_util.hpp"
#include "topology/faults.hpp"

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

/// Feeds one candidate list, expanded to one (port, vc) element per VC of
/// each entry's range, in the allocator's visiting order.
void hash_list(Fnv1a& f, const std::vector<Candidate>& cand) {
  std::int32_t n = 0;
  for (const Candidate& c : cand) n += c.vc_hi - c.vc_lo + 1;
  f.i32(n);
  for (const Candidate& c : cand) {
    for (int v = c.vc_lo; v <= c.vc_hi; ++v) {
      f.i32(c.port);
      f.i32(v);
      f.i32(c.penalty);
      f.byte(c.escape ? 1 : 0);
      f.byte(c.escape_down ? 1 : 0);
    }
  }
}

std::vector<std::string> pinned_names() {
  std::vector<std::string> names = mechanism_names();
  names.push_back("escape");
  for (const char* base : {"omnisp", "polsp"})
    for (const char* policy : {"free", "monotone", "rung", "auto"})
      names.push_back(std::string(base) + "@" + policy);
  return names;
}

/// Hash of \p name's candidate lists over every (switch, destination)
/// pair of \p t and every packet state of the grid.
std::uint64_t candidate_hash(const testutil::TestNet& t,
                             const std::string& name) {
  const std::unique_ptr<RoutingMechanism> mech = make_mechanism(name);
  Fnv1a f;
  std::vector<Candidate> out;
  const SwitchId n = t.hx->num_switches();
  for (SwitchId sw = 0; sw < n; ++sw) {
    for (SwitchId dst = 0; dst < n; ++dst) {
      if (sw == dst) continue;
      for (int hops : {0, 1, 3}) {
        for (Vc cur_vc : {0, 2}) {
          for (bool in_escape : {false, true}) {
            for (bool gone_down : {false, true}) {
              Packet p = testutil::make_packet(t, sw, dst);
              Rng rng(static_cast<std::uint64_t>(sw) * 131u +
                      static_cast<std::uint64_t>(dst));
              mech->on_inject(t.ctx, p, rng);
              mech->on_arrival(t.ctx, p, sw);
              p.hops = static_cast<std::uint16_t>(hops);
              p.cur_vc = cur_vc;
              p.in_escape = in_escape;
              p.escape_gone_down = gone_down;
              out.clear();
              mech->candidates(t.ctx, p, sw, out);
              hash_list(f, out);
            }
          }
        }
      }
    }
  }
  return f.h;
}

/// A HyperX of \p dims x \p side with \p faults random faults (seeded,
/// connectivity kept) and an escape rooted at \p root.
testutil::TestNet faulted_net(int dims, int side, int faults, SwitchId root,
                              bool strict) {
  testutil::TestNet t = testutil::make_net(dims, side, /*num_vcs=*/4);
  Rng rng(2404);
  apply_faults(t.hx->graph(), random_fault_links(t.hx->graph(), faults, rng,
                                                 /*keep_connected=*/true));
  t.rebuild(root, strict);
  return t;
}

struct Pin {
  const char* name;
  std::uint64_t hash;
};

void check_pins(const testutil::TestNet& t, const std::vector<Pin>& pins) {
  const std::vector<std::string> names = pinned_names();
  ASSERT_EQ(pins.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_EQ(names[i], pins[i].name);
    const std::uint64_t got = candidate_hash(t, names[i]);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxULL",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, pins[i].hash) << names[i] << " now hashes to " << hex;
  }
}

TEST(CandidatePin, Faulted6x6Relaxed) {
  const testutil::TestNet t = faulted_net(2, 6, 20, /*root=*/7, false);
  check_pins(t, {{"minimal", 0xcf2ee43d992ab005ULL},
                 {"dor", 0x3501704f0c2e5255ULL},
                 {"valiant", 0x31d9905d1334afc5ULL},
                 {"omniwar", 0xdb5aae7510d57e65ULL},
                 {"polarized", 0xfb9ae1728396f4b5ULL},
                 {"omnisp", 0x5b053a18958f330dULL},
                 {"polsp", 0xcd2a53de2bd9976dULL},
                 {"escape", 0x9ade7165eb82a635ULL},
                 {"omnisp@free", 0x5b053a18958f330dULL},
                 {"omnisp@monotone", 0x10ad63f0063f3d2dULL},
                 {"omnisp@rung", 0x044d7d55a957570dULL},
                 {"omnisp@auto", 0x044d7d55a957570dULL},
                 {"polsp@free", 0x74526d1b920493d5ULL},
                 {"polsp@monotone", 0xf5817fad8e1bd1ddULL},
                 {"polsp@rung", 0xcd2a53de2bd9976dULL},
                 {"polsp@auto", 0xcd2a53de2bd9976dULL}});
}

TEST(CandidatePin, Faulted4x4x4Strict) {
  const testutil::TestNet t = faulted_net(3, 4, 30, /*root=*/21, true);
  check_pins(t, {{"minimal", 0x5b1c52b24a0f3bc5ULL},
                 {"dor", 0x4a7e313c2707deb5ULL},
                 {"valiant", 0x9bab66bfde27c295ULL},
                 {"omniwar", 0x0a97810d2401a925ULL},
                 {"polarized", 0xd16a5886ebe3f0b5ULL},
                 {"omnisp", 0xb8f9dade270123c5ULL},
                 {"polsp", 0x19a0041742caa27dULL},
                 {"escape", 0x376ee6c316beb965ULL},
                 {"omnisp@free", 0xb8f9dade270123c5ULL},
                 {"omnisp@monotone", 0xfbf49d956cdd2331ULL},
                 {"omnisp@rung", 0x138b6d3d40cd56fdULL},
                 {"omnisp@auto", 0xb8f9dade270123c5ULL},
                 {"polsp@free", 0x19a0041742caa27dULL},
                 {"polsp@monotone", 0x2d79dac3834ff079ULL},
                 {"polsp@rung", 0x29f24584ca2cae25ULL},
                 {"polsp@auto", 0x19a0041742caa27dULL}});
}

} // namespace
} // namespace hxsp
