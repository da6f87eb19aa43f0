/// \file traffic_test.cpp
/// Traffic-pattern tests: admissibility (permutations are bijections),
/// the DCR involution, and the defining property of the paper's new
/// Regular Permutation to Neighbour pattern — every K_k row carries
/// exactly 0 or k/2 confined source/destination pairs (§4).

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "traffic/pattern.hpp"

namespace hxsp {
namespace {

/// Collects dst for every server of a deterministic pattern.
std::vector<ServerId> full_map(const TrafficPattern& p, ServerId n) {
  Rng rng(1);
  std::vector<ServerId> out(static_cast<std::size_t>(n));
  for (ServerId s = 0; s < n; ++s) out[static_cast<std::size_t>(s)] =
      p.destination(s, rng);
  return out;
}

/// True when \p m is a permutation of [0, n).
bool is_permutation(const std::vector<ServerId>& m) {
  std::set<ServerId> seen(m.begin(), m.end());
  return seen.size() == m.size() && *seen.begin() == 0 &&
         *seen.rbegin() == static_cast<ServerId>(m.size()) - 1;
}

TEST(Uniform, NeverSelfAndInRange) {
  const HyperX hx = HyperX::regular(2, 4, 4);
  Rng seed(2);
  auto p = make_traffic("uniform", hx, seed);
  Rng rng(3);
  for (ServerId s = 0; s < hx.num_servers(); s += 7) {
    for (int i = 0; i < 50; ++i) {
      const ServerId d = p->destination(s, rng);
      EXPECT_NE(d, s);
      EXPECT_GE(d, 0);
      EXPECT_LT(d, hx.num_servers());
    }
  }
}

TEST(Uniform, CoversAllDestinations) {
  const HyperX hx = HyperX::regular(2, 2, 2);
  Rng seed(2);
  auto p = make_traffic("uniform", hx, seed);
  Rng rng(5);
  std::set<ServerId> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(p->destination(0, rng));
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(hx.num_servers() - 1));
}

TEST(RandomServerPermutation, IsPermutationAndSeedStable) {
  const HyperX hx = HyperX::regular(2, 4, 4);
  Rng a(7), b(7), c(8);
  auto pa = make_traffic("rsp", hx, a);
  auto pb = make_traffic("rsp", hx, b);
  auto pc = make_traffic("rsp", hx, c);
  const auto ma = full_map(*pa, hx.num_servers());
  EXPECT_TRUE(is_permutation(ma));
  EXPECT_EQ(ma, full_map(*pb, hx.num_servers()));
  EXPECT_NE(ma, full_map(*pc, hx.num_servers()));
}

TEST(Dcr3D, MatchesFormulaAndIsInvolution) {
  const HyperX hx = HyperX::regular(3, 4, 4);
  Rng seed(1);
  auto p = make_traffic("dcr", hx, seed);
  const auto m = full_map(*p, hx.num_servers());
  EXPECT_TRUE(is_permutation(m));
  const int k = 4;
  for (ServerId s = 0; s < hx.num_servers(); ++s) {
    const auto& c = hx.coords(hx.server_switch(s));
    const SwitchId expect_sw =
        hx.switch_at({k - 1 - c[2], k - 1 - c[1], k - 1 - c[0]});
    EXPECT_EQ(hx.server_switch(m[static_cast<std::size_t>(s)]), expect_sw);
    EXPECT_EQ(hx.server_local(m[static_cast<std::size_t>(s)]),
              hx.server_local(s));
    // (x,y,z) -> (~z,~y,~x) applied twice is the identity.
    EXPECT_EQ(m[static_cast<std::size_t>(m[static_cast<std::size_t>(s)])], s);
  }
}

TEST(Dcr2D, UsesServerCoordinateAsThirdDimension) {
  const HyperX hx = HyperX::regular(2, 4); // 4 servers/switch = side
  Rng seed(1);
  auto p = make_traffic("dcr", hx, seed);
  const auto m = full_map(*p, hx.num_servers());
  EXPECT_TRUE(is_permutation(m));
  const int k = 4;
  // Server (w,x,y) -> (~y,~x,~w): switch (~x,~w), local ~y (paper §4).
  for (ServerId s = 0; s < hx.num_servers(); ++s) {
    const SwitchId sw = hx.server_switch(s);
    const int w = hx.server_local(s);
    const int x = hx.coord(sw, 0);
    const int y = hx.coord(sw, 1);
    const ServerId d = m[static_cast<std::size_t>(s)];
    EXPECT_EQ(hx.coord(hx.server_switch(d), 0), k - 1 - x);
    EXPECT_EQ(hx.coord(hx.server_switch(d), 1), k - 1 - w);
    EXPECT_EQ(hx.server_local(d), k - 1 - y);
  }
}

TEST(Rpn, DestinationIsHammingNeighbour) {
  const HyperX hx = HyperX::regular(3, 4, 4);
  Rng seed(1);
  auto p = make_traffic("rpn", hx, seed);
  const auto m = full_map(*p, hx.num_servers());
  EXPECT_TRUE(is_permutation(m));
  for (ServerId s = 0; s < hx.num_servers(); ++s) {
    const SwitchId a = hx.server_switch(s);
    const SwitchId b = hx.server_switch(m[static_cast<std::size_t>(s)]);
    EXPECT_EQ(hx.hamming_distance(a, b), 1);
    EXPECT_EQ(hx.server_local(m[static_cast<std::size_t>(s)]),
              hx.server_local(s));
  }
}

TEST(Rpn, StaysInsideitsHypercube) {
  const HyperX hx = HyperX::regular(3, 8, 1);
  Rng seed(1);
  auto p = make_traffic("rpn", hx, seed);
  Rng rng(1);
  for (ServerId s = 0; s < hx.num_servers(); ++s) {
    const SwitchId a = hx.server_switch(s);
    const SwitchId b = hx.server_switch(p->destination(s, rng));
    for (int i = 0; i < 3; ++i)
      EXPECT_EQ(hx.coord(a, i) / 2, hx.coord(b, i) / 2);
  }
}

TEST(Rpn, SwitchCyclesHaveLengthEight) {
  const HyperX hx = HyperX::regular(3, 4, 1);
  Rng seed(1);
  auto p = make_traffic("rpn", hx, seed);
  Rng rng(1);
  for (SwitchId sw = 0; sw < hx.num_switches(); ++sw) {
    SwitchId cur = sw;
    for (int step = 0; step < 8; ++step)
      cur = hx.server_switch(p->destination(hx.server_at(cur, 0), rng));
    EXPECT_EQ(cur, sw) << "switch " << sw << " not on an 8-cycle";
  }
}

/// The defining property (paper §4): in every K_k row of the HyperX there
/// are exactly 0 or k/2 source/destination pairs confined to that row.
TEST(Rpn, RowConfinementProperty) {
  const HyperX hx = HyperX::regular(3, 8, 1);
  Rng seed(1);
  auto p = make_traffic("rpn", hx, seed);
  Rng rng(1);
  const int k = 8;
  for (int dim = 0; dim < 3; ++dim) {
    // Enumerate rows by fixing the other two coordinates.
    for (SwitchId sw = 0; sw < hx.num_switches(); ++sw) {
      bool is_row_base = true;
      if (hx.coord(sw, dim) != 0) is_row_base = false;
      if (!is_row_base) continue;
      int confined = 0;
      for (int a = 0; a < k; ++a) {
        auto c = hx.coords(sw);
        c[static_cast<std::size_t>(dim)] = a;
        const SwitchId src = hx.switch_at(c);
        const SwitchId dst =
            hx.server_switch(p->destination(hx.server_at(src, 0), rng));
        // Confined pair: source and destination both in this row.
        bool same_row = true;
        for (int i = 0; i < 3; ++i)
          if (i != dim && hx.coord(dst, i) != hx.coord(src, i)) same_row = false;
        if (same_row) ++confined;
      }
      EXPECT_TRUE(confined == 0 || confined == k / 2)
          << "row through switch " << sw << " dim " << dim << " has "
          << confined << " confined pairs";
    }
  }
}

TEST(Transpose, SwapsCoordinates) {
  const HyperX hx = HyperX::regular(2, 4, 2);
  Rng seed(1);
  auto p = make_traffic("transpose", hx, seed);
  const auto m = full_map(*p, hx.num_servers());
  EXPECT_TRUE(is_permutation(m));
  for (ServerId s = 0; s < hx.num_servers(); ++s) {
    const SwitchId a = hx.server_switch(s);
    const SwitchId b = hx.server_switch(m[static_cast<std::size_t>(s)]);
    EXPECT_EQ(hx.coord(b, 0), hx.coord(a, 1));
    EXPECT_EQ(hx.coord(b, 1), hx.coord(a, 0));
  }
}

TEST(Complement, ComplementsEveryCoordinate) {
  const HyperX hx = HyperX::regular(3, 4, 2);
  Rng seed(1);
  auto p = make_traffic("complement", hx, seed);
  const auto m = full_map(*p, hx.num_servers());
  EXPECT_TRUE(is_permutation(m));
  for (ServerId s = 0; s < hx.num_servers(); s += 3) {
    const SwitchId a = hx.server_switch(s);
    const SwitchId b = hx.server_switch(m[static_cast<std::size_t>(s)]);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(hx.coord(b, i), 3 - hx.coord(a, i));
  }
}

TEST(Shift, HalfRotation) {
  const HyperX hx = HyperX::regular(2, 4, 4);
  Rng seed(1);
  auto p = make_traffic("shift", hx, seed);
  const auto m = full_map(*p, hx.num_servers());
  EXPECT_TRUE(is_permutation(m));
  EXPECT_EQ(m[0], hx.num_servers() / 2);
}

TEST(Hotspot, ConcentratesOnSpot) {
  const HyperX hx = HyperX::regular(2, 4, 4);
  Rng seed(1);
  auto p = make_traffic("hotspot", hx, seed);
  Rng rng(2);
  int to_spot = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i)
    to_spot += p->destination(0, rng) == hx.num_servers() / 2;
  EXPECT_NEAR(static_cast<double>(to_spot) / kSamples, 0.1, 0.02);
}

TEST(Hotspot, ParamsAreConfigurable) {
  const HyperX hx = HyperX::regular(2, 4, 4);
  const ServerId n = hx.num_servers();
  Rng seed(1);
  TrafficParams params;
  params.hotspot_fraction = 1.0;  // every draw targets a spot
  params.hotspot_count = 3;
  auto p = make_traffic("hotspot", hx, seed, params);
  // The spots are spread evenly over the id space: (k+1)*n/(count+1).
  const std::set<ServerId> spots = {n / 4, 2 * n / 4, 3 * n / 4};
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const ServerId d = p->destination(0, rng);
    EXPECT_TRUE(spots.count(d)) << d;
  }
  // Fraction 0 degenerates to uniform: never a forced spot, never self.
  params.hotspot_fraction = 0.0;
  params.hotspot_count = 1;
  auto u = make_traffic("hotspot", hx, seed, params);
  for (int i = 0; i < 2000; ++i) {
    const ServerId d = u->destination(3, rng);
    EXPECT_NE(d, 3);
    EXPECT_GE(d, 0);
    EXPECT_LT(d, n);
  }
}

TEST(Hotspot, DefaultParamsMatchLegacyDrawForDraw) {
  // The default TrafficParams must reproduce the previously hard-coded
  // hotspot (10% to server n/2) with an identical RNG draw sequence, or
  // every persisted hotspot artefact would silently change.
  const HyperX hx = HyperX::regular(2, 4, 4);
  const ServerId n = hx.num_servers();
  Rng seed(1);
  auto p = make_traffic("hotspot", hx, seed);
  Rng a(99), b(99);
  for (int i = 0; i < 5000; ++i) {
    const ServerId src = static_cast<ServerId>(i % n);
    const ServerId got = p->destination(src, a);
    // Reference implementation: the original inline logic.
    ServerId want;
    if (src != n / 2 && b.next_bool(0.1)) {
      want = n / 2;
    } else {
      ServerId d = static_cast<ServerId>(
          b.next_below(static_cast<std::uint64_t>(n - 1)));
      want = d >= src ? d + 1 : d;
    }
    ASSERT_EQ(got, want) << "draw " << i;
  }
}

TEST(Factory, AllNamesConstruct) {
  const HyperX hx = HyperX::regular(2, 4); // sps = side, needed by dcr2d
  for (const auto& name : traffic_names()) {
    Rng seed(1);
    auto p = make_traffic(name, hx, seed);
    ASSERT_NE(p, nullptr) << name;
  }
}

} // namespace
} // namespace hxsp
