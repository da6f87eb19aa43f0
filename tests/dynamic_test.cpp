/// \file dynamic_test.cpp
/// Tests for the dynamic-fault extension (online BFS recovery) and the
/// Dragonfly builder used by the §7 topology study.

#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "topology/builders.hpp"

namespace hxsp {
namespace {

ExperimentSpec dyn_spec(const std::string& mech) {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 4;
  s.mechanism = mech;
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.warmup = 1000;
  s.measure = 6000;
  s.seed = 3;
  return s;
}

TEST(DynamicFaults, SurvivesMidRunFailures) {
  ExperimentSpec s = dyn_spec("polsp");
  Experiment e(s);
  HyperX scratch(s.sides, 4);
  Rng rng(5);
  const auto links = random_fault_links(scratch.graph(), 4, rng, true);
  std::vector<FaultEvent> events;
  for (int i = 0; i < 4; ++i)
    events.push_back({1500 + i * 1200, links[static_cast<std::size_t>(i)]});
  const DynamicResult res = e.run_load_dynamic(0.6, events);
  EXPECT_GT(res.row.accepted, 0.4);
  EXPECT_GE(res.dropped, 0);
  EXPECT_LT(res.dropped, 200); // only dead-wire queues are lost
}

TEST(DynamicFaults, ConvergesToStaticReference) {
  ExperimentSpec s = dyn_spec("omnisp");
  HyperX scratch(s.sides, 4);
  Rng rng(7);
  const auto links = random_fault_links(scratch.graph(), 3, rng, true);

  // Dynamic run with early failures and a long steady tail.
  Experiment e(s);
  std::vector<FaultEvent> events;
  for (int i = 0; i < 3; ++i)
    events.push_back({200 + 100 * i, links[static_cast<std::size_t>(i)]});
  const DynamicResult dyn = e.run_load_dynamic(0.5, events);

  // Static run with the same fault set.
  ExperimentSpec st = s;
  st.fault_links = links;
  Experiment es(st);
  const ResultRow ref = es.run_load(0.5);

  EXPECT_NEAR(dyn.row.accepted, ref.accepted, 0.06);
}

TEST(DynamicFaults, ExperimentReusableAfterDynamicRun) {
  ExperimentSpec s = dyn_spec("polsp");
  Experiment e(s);
  const double before = e.run_load(0.5).accepted;
  HyperX scratch(s.sides, 4);
  const LinkId victim = scratch.graph().port(0, 0).link;
  (void)e.run_load_dynamic(0.5, {{1500, victim}});
  // The injected fault was restored: the healthy rerun matches.
  const double after = e.run_load(0.5).accepted;
  EXPECT_DOUBLE_EQ(before, after);
}

TEST(DynamicFaults, AlreadyDeadLinksAreSkipped) {
  ExperimentSpec s = dyn_spec("polsp");
  HyperX scratch(s.sides, 4);
  const LinkId victim = scratch.graph().port(0, 0).link;
  s.fault_links = {victim}; // statically dead
  Experiment e(s);
  const DynamicResult res = e.run_load_dynamic(0.5, {{1500, victim}});
  EXPECT_GT(res.row.accepted, 0.4);
  // A second run still sees the static fault (it was not "restored").
  const DynamicResult res2 = e.run_load_dynamic(0.5, {});
  EXPECT_GT(res2.row.accepted, 0.4);
}

TEST(DynamicFaults, DeterministicGivenSeed) {
  ExperimentSpec s = dyn_spec("omnisp");
  HyperX scratch(s.sides, 4);
  const LinkId victim = scratch.graph().port(5, 2).link;
  const DynamicResult a = Experiment(s).run_load_dynamic(0.6, {{2000, victim}});
  const DynamicResult b = Experiment(s).run_load_dynamic(0.6, {{2000, victim}});
  EXPECT_DOUBLE_EQ(a.row.accepted, b.row.accepted);
  EXPECT_EQ(a.dropped, b.dropped);
}

TEST(DynamicFaultsDeathTest, OutOfRangeFaultLinkIsRejected) {
  // 4x4 has 48 links: 100 and -5 would index past the link tables.
  ExperimentSpec s = dyn_spec("polsp");
  s.fault_links = {29, 100};
  EXPECT_DEATH(Experiment{s},
               "spec.fault_links\\[1\\] = 100 is not a link id: the fabric has 48 links");
  s.fault_links = {-5};
  EXPECT_DEATH(Experiment{s}, "spec.fault_links\\[0\\] = -5 is not a link id");
}

TEST(DynamicFaultsDeathTest, OutOfRangeEventLinkIsRejected) {
  ExperimentSpec s = dyn_spec("polsp");
  s.warmup = 100;
  s.measure = 100;
  EXPECT_DEATH(Experiment(s).run_load_dynamic(0.5, {{50, 3}, {20, 48}}),
               "events\\[1\\].link = 48 is not a link id: the fabric has 48 links");
}

TEST(Dragonfly, CanonicalSizes) {
  // a=4, h=2: g = 9 groups, 36 switches; links = 9*C(4,2) + 9*4*2/2 = 90.
  const Graph df = make_dragonfly(4, 2);
  EXPECT_EQ(df.num_switches(), 36);
  EXPECT_EQ(df.num_links(), 9 * 6 + 9 * 4);
  for (SwitchId s = 0; s < df.num_switches(); ++s)
    EXPECT_EQ(df.degree(s), (4 - 1) + 2); // a-1 local + h global
  EXPECT_TRUE(df.connected());
}

TEST(Dragonfly, DiameterIsThree) {
  const Graph df = make_dragonfly(4, 2);
  const DistanceTable d(df);
  EXPECT_EQ(d.diameter(), 3); // local-global-local worst case
}

TEST(Dragonfly, OneGlobalLinkPerGroupPair) {
  const int a = 3, h = 2, groups = a * h + 1;
  const Graph df = make_dragonfly(a, h);
  std::vector<int> pair_links(static_cast<std::size_t>(groups * groups), 0);
  for (LinkId l = 0; l < df.num_links(); ++l) {
    const auto& e = df.link(l);
    const int ga = e.a / a, gb = e.b / a;
    if (ga != gb) ++pair_links[static_cast<std::size_t>(ga * groups + gb)];
  }
  for (int x = 0; x < groups; ++x)
    for (int y = 0; y < groups; ++y)
      if (x != y) {
        EXPECT_EQ(pair_links[static_cast<std::size_t>(x * groups + y)] +
                      pair_links[static_cast<std::size_t>(y * groups + x)],
                  1)
            << "groups " << x << "," << y;
      }
}

/// Mean greedy-escape route length over graph distance; -1 on walk failure.
double escape_walk_stretch(const Graph& g) {
  const DistanceTable dist(g);
  const EscapeUpDown esc(g, {.root = 0, .strict_phase = false,
                             .penalties = {}, .use_shortcuts = true});
  double sum = 0;
  long n = 0;
  std::vector<Candidate> cand;
  for (SwitchId x = 0; x < g.num_switches(); ++x)
    for (SwitchId y = 0; y < g.num_switches(); ++y) {
      if (x == y) continue;
      SwitchId c = x;
      int hops = 0;
      while (c != y) {
        if (hops > 4 * g.num_switches()) return -1;
        cand.clear();
        esc.candidates(c, y, false, cand);
        if (cand.empty()) return -1;
        const Candidate* best = &cand.front();
        for (const auto& ec : cand)
          if (ec.penalty < best->penalty) best = &ec;
        c = g.port(c, best->port).neighbor;
        ++hops;
      }
      sum += static_cast<double>(hops) / dist.at(x, y);
      ++n;
    }
  return sum / static_cast<double>(n);
}

TEST(Dragonfly, EscapeStretchExceedsHyperX) {
  // The quantified §7 claim: actual escape routes (greedy, shortcuts
  // included) track shortest paths on a HyperX much better than on a
  // Dragonfly of comparable size.
  HyperX hx({6, 6}, 1);
  const double sh = escape_walk_stretch(hx.graph());
  const double sd = escape_walk_stretch(make_dragonfly(4, 2));
  ASSERT_GT(sh, 0);
  ASSERT_GT(sd, 0);
  EXPECT_LT(sh, sd);
  EXPECT_LT(sh, 1.5); // HyperX escape stays close to shortest paths
}

} // namespace
} // namespace hxsp
