/// \file sweep_test.cpp
/// Parameterized property sweeps across mechanisms, topology shapes and
/// seeds: the "for all" guarantees behind the paper's claims.

#include <gtest/gtest.h>

#include <ostream>

#include "harness/experiment.hpp"
#include "topology/builders.hpp"

namespace hxsp {
namespace {

// ---------------------------------------------------------------------------
// Every mechanism delivers every switch pair on a fault-free HyperX.
// ---------------------------------------------------------------------------

class MechanismDelivery : public ::testing::TestWithParam<const char*> {};

TEST_P(MechanismDelivery, AllPairsDeliverableFaultFree2D) {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 2;
  s.mechanism = GetParam();
  s.sim.num_vcs = 4;
  Experiment e(s);
  const int bound = 4 * e.hyperx().num_switches();
  for (SwitchId a = 0; a < e.hyperx().num_switches(); ++a)
    for (SwitchId b = 0; b < e.hyperx().num_switches(); ++b) {
      if (a == b) continue;
      EXPECT_GE(e.walk_route(a, b, bound), 0)
          << GetParam() << ": " << a << "->" << b;
    }
}

TEST_P(MechanismDelivery, AllPairsDeliverableFaultFree3D) {
  ExperimentSpec s;
  s.sides = {3, 3, 3};
  s.servers_per_switch = 1;
  s.mechanism = GetParam();
  s.sim.num_vcs = 6;
  Experiment e(s);
  const int bound = 4 * e.hyperx().num_switches();
  for (SwitchId a = 0; a < e.hyperx().num_switches(); ++a)
    for (SwitchId b = 0; b < e.hyperx().num_switches(); ++b) {
      if (a == b) continue;
      EXPECT_GE(e.walk_route(a, b, bound), 0)
          << GetParam() << ": " << a << "->" << b;
    }
}

TEST_P(MechanismDelivery, ShortSimulationDeliversTraffic) {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 2;
  s.mechanism = GetParam();
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.warmup = 500;
  s.measure = 1500;
  Experiment e(s);
  const ResultRow r = e.run_load(0.3);
  EXPECT_GT(r.accepted, 0.2) << GetParam();
  EXPECT_GT(r.jain, 0.9) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, MechanismDelivery,
                         ::testing::Values("minimal", "dor", "valiant",
                                           "omniwar", "polarized", "omnisp",
                                           "polsp"));

// ---------------------------------------------------------------------------
// HyperX structural invariants across shapes.
// ---------------------------------------------------------------------------

struct ShapeParam {
  int dims;
  int side;
};

// Readable ctest names instead of gtest's raw-byte print.
void PrintTo(const ShapeParam& p, std::ostream* os) {
  *os << p.dims << "d_side" << p.side;
}

class HyperXShapes : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(HyperXShapes, StructuralInvariants) {
  const auto [dims, side] = GetParam();
  const HyperX hx = HyperX::regular(dims, side, 1);
  long switches = 1;
  for (int i = 0; i < dims; ++i) switches *= side;
  EXPECT_EQ(hx.num_switches(), switches);
  const int degree = dims * (side - 1);
  for (SwitchId s = 0; s < hx.num_switches(); ++s)
    EXPECT_EQ(hx.graph().degree(s), degree);
  EXPECT_EQ(hx.graph().num_links(), switches * degree / 2);
  const DistanceTable d(hx.graph());
  EXPECT_EQ(d.diameter(), dims);
  EXPECT_TRUE(hx.graph().connected());
}

TEST_P(HyperXShapes, EscapeLivenessFaultFree) {
  const auto [dims, side] = GetParam();
  const HyperX hx = HyperX::regular(dims, side, 1);
  const EscapeUpDown esc(hx.graph(),
                         {.root = hx.num_switches() / 2, .strict_phase = false,
                          .penalties = {}, .use_shortcuts = true});
  std::vector<Candidate> cand;
  // Spot-check a diagonal of pairs (full all-pairs is covered elsewhere).
  for (SwitchId a = 0; a < hx.num_switches(); a += 3) {
    for (SwitchId b = 1; b < hx.num_switches(); b += 5) {
      if (a == b) continue;
      SwitchId c = a;
      int guard = 0;
      while (c != b && guard++ <= 4 * dims) {
        cand.clear();
        esc.candidates(c, b, false, cand);
        ASSERT_FALSE(cand.empty());
        c = hx.graph().port(c, cand.front().port).neighbor;
      }
      EXPECT_EQ(c, b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, HyperXShapes,
                         ::testing::Values(ShapeParam{1, 4}, ShapeParam{2, 3},
                                           ShapeParam{2, 5}, ShapeParam{3, 3},
                                           ShapeParam{3, 4}, ShapeParam{4, 2}));

// ---------------------------------------------------------------------------
// Pattern admissibility across topologies.
// ---------------------------------------------------------------------------

struct PatternParam {
  const char* pattern;
  int dims;
  int side;
  int sps;
};

// Without this gtest prints the raw bytes, which include the pattern
// string's address and so change from run to run, and ctest names each
// case after the printed value.
void PrintTo(const PatternParam& p, std::ostream* os) {
  *os << p.pattern << "_" << p.dims << "d_side" << p.side << "_sps" << p.sps;
}

class PatternAdmissibility : public ::testing::TestWithParam<PatternParam> {};

TEST_P(PatternAdmissibility, PermutationAndRange) {
  const auto p = GetParam();
  const HyperX hx = HyperX::regular(p.dims, p.side, p.sps);
  Rng seed(3);
  auto traffic = make_traffic(p.pattern, hx, seed);
  Rng rng(4);
  std::vector<int> indeg(static_cast<std::size_t>(hx.num_servers()), 0);
  for (ServerId s = 0; s < hx.num_servers(); ++s) {
    const ServerId d = traffic->destination(s, rng);
    ASSERT_GE(d, 0);
    ASSERT_LT(d, hx.num_servers());
    ++indeg[static_cast<std::size_t>(d)];
  }
  for (ServerId s = 0; s < hx.num_servers(); ++s)
    EXPECT_EQ(indeg[static_cast<std::size_t>(s)], 1)
        << p.pattern << " server " << s;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, PatternAdmissibility,
    ::testing::Values(PatternParam{"rsp", 2, 4, 4}, PatternParam{"rsp", 3, 4, 2},
                      PatternParam{"dcr", 2, 6, 6}, PatternParam{"dcr", 3, 6, 6},
                      PatternParam{"rpn", 3, 4, 4}, PatternParam{"rpn", 3, 6, 2},
                      PatternParam{"rpn", 2, 4, 4},
                      PatternParam{"transpose", 2, 5, 3},
                      PatternParam{"complement", 3, 5, 2},
                      PatternParam{"shift", 2, 4, 4}));

// ---------------------------------------------------------------------------
// Random-regular builder validity across seeds and parameters.
// ---------------------------------------------------------------------------

struct RegularParam {
  int n;
  int degree;
  int seed;
};

// Readable ctest names instead of gtest's raw-byte print.
void PrintTo(const RegularParam& p, std::ostream* os) {
  *os << "n" << p.n << "_degree" << p.degree << "_seed" << p.seed;
}

class RandomRegularSweep : public ::testing::TestWithParam<RegularParam> {};

TEST_P(RandomRegularSweep, RegularAndConnected) {
  const auto p = GetParam();
  Rng rng(static_cast<std::uint64_t>(p.seed));
  const Graph g = make_random_regular(p.n, p.degree, rng);
  for (SwitchId s = 0; s < g.num_switches(); ++s)
    EXPECT_EQ(g.degree(s), p.degree);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.num_links(), p.n * p.degree / 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomRegularSweep,
                         ::testing::Values(RegularParam{10, 3, 1},
                                           RegularParam{16, 4, 2},
                                           RegularParam{25, 4, 3},
                                           RegularParam{32, 5, 4},
                                           RegularParam{12, 6, 5}));

// ---------------------------------------------------------------------------
// SurePath delivery on arbitrary topologies (paper §7).
// ---------------------------------------------------------------------------

TEST(SweepGeneric, SurePathWalksOnDragonfly) {
  Graph df = make_dragonfly(4, 1); // 5 groups x 4 switches
  DistanceTable dist(df);
  EscapeUpDown esc(df, {.root = 0, .strict_phase = true, .penalties = {},
                        .use_shortcuts = true});
  std::vector<Candidate> cand;
  for (SwitchId a = 0; a < df.num_switches(); ++a)
    for (SwitchId b = 0; b < df.num_switches(); ++b) {
      if (a == b) continue;
      SwitchId c = a;
      bool down = false;
      int guard = 0;
      while (c != b && guard++ <= 4 * df.num_switches()) {
        cand.clear();
        esc.candidates(c, b, down, cand);
        ASSERT_FALSE(cand.empty());
        const Candidate* best = &cand.front();
        for (const auto& ec : cand)
          if (ec.penalty < best->penalty) best = &ec;
        if (best->escape_down) down = true;
        c = df.port(c, best->port).neighbor;
      }
      EXPECT_EQ(c, b);
    }
}

} // namespace
} // namespace hxsp
