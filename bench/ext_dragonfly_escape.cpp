/// \file ext_dragonfly_escape.cpp
/// Extension study for the paper's §7 discussion: the Up/Down escape is
/// topology-agnostic, but "in HyperX the escape subnetwork contains
/// shortest paths ... this is not true, for example, in Dragonfly
/// networks". We quantify that: build a HyperX and a Dragonfly of similar
/// size, and measure (a) how much longer escape routes are than shortest
/// paths on each, and (b) SurePath-over-Minimal throughput and escape
/// usage on both.
///
/// The three per-topology studies are independent and fan across the
/// sweep pool via ParallelSweep::map (--jobs=N); each study builds its
/// own tables, network and RNG streams, so output is bit-identical at
/// any worker count. The studies run on hand-built graphs an
/// ExperimentSpec cannot express, so --emit-tasks writes an empty
/// manifest.
///
/// Usage: ext_dragonfly_escape [--csv[=file]] [--seed=N] [--jobs=N]

#include "bench_util.hpp"
#include "core/escape_updown.hpp"
#include "routing/minimal.hpp"
#include "topology/builders.hpp"

using namespace hxsp;

namespace {

/// Mean ratio of the *actual* escape route length (greedy best-penalty
/// walk, shortcuts included) to the graph distance, over all pairs: 1.0
/// means the escape preserves every shortest path — the paper's §7 claim
/// for HyperX.
double escape_stretch(const Graph& g, const EscapeUpDown& esc,
                      const DistanceTable& dist) {
  double sum = 0;
  long count = 0;
  std::vector<Candidate> cand;
  for (SwitchId a = 0; a < g.num_switches(); ++a) {
    for (SwitchId b = 0; b < g.num_switches(); ++b) {
      if (a == b) continue;
      SwitchId c = a;
      bool gone_down = false;
      int hops = 0;
      while (c != b && hops <= 4 * g.num_switches()) {
        cand.clear();
        esc.candidates(c, b, gone_down, cand);
        HXSP_CHECK(!cand.empty());
        const Candidate* best = &cand.front();
        for (const auto& ec : cand)
          if (ec.penalty < best->penalty) best = &ec;
        if (best->escape_down) gone_down = true;
        c = g.port(c, best->port).neighbor;
        ++hops;
      }
      sum += static_cast<double>(hops) / dist.at(a, b);
      ++count;
    }
  }
  return sum / static_cast<double>(count);
}

struct StudyResult {
  double stretch = 0;
  double accepted = 0;
  double escape_frac = 0;
};

StudyResult run_study(Graph graph, int sps, std::uint64_t seed) {
  DistanceTable dist(graph);
  EscapeUpDown esc(graph, {.root = 0, .strict_phase = true, .penalties = {},
                           .use_shortcuts = true});
  StudyResult r{};
  r.stretch = escape_stretch(graph, esc, dist);

  RoutingMechanism mech = RoutingMechanism::surepath(
      std::make_unique<MinimalAlgorithm>(), "MinSP", CRoutVcPolicy::Free);
  SimConfig cfg;
  cfg.num_vcs = 4;
  NetworkContext ctx{&graph, nullptr, &dist, &esc, cfg.num_vcs};
  const std::unique_ptr<TrafficPattern> traffic =
      make_uniform_traffic(static_cast<ServerId>(graph.num_switches()) * sps);
  Network net(ctx, mech, *traffic, cfg, sps, seed);
  net.set_offered_load(1.0);
  net.run_cycles(1500);
  net.begin_window();
  net.run_cycles(3000);
  net.end_window();
  r.accepted = net.metrics().accepted_load();
  r.escape_frac = net.metrics().escape_hop_fraction();
  return r;
}

} // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const std::uint64_t seed = opt.get_int_as<std::uint64_t>("seed", 1);
  const bench::CommonOptions common(opt);
  if (bench::maybe_emit_tasks(common, TaskGrid("ext_dragonfly_escape")))
    return 0;

  std::printf("Extension — escape quality across topologies (paper §7)\n\n");
  Table t({"topology", "switches", "links", "escape_stretch", "accepted",
           "escape_frac"});
  ResultSink sink("ext_dragonfly_escape");

  struct Study {
    std::string name;     ///< table label
    const char* console;  ///< console prefix, aligned
    Graph graph;
  };
  const HyperX hx({8, 8}, 4);
  std::vector<Study> studies;
  studies.push_back({"HyperX 8x8", "HyperX 8x8:    ", hx.graph()});
  // 9 groups x 4 switches = 36 switches / 7 groups x 6 switches = 42.
  studies.push_back({"Dragonfly a=4 h=2", "Dragonfly(4,2):", make_dragonfly(4, 2)});
  studies.push_back({"Dragonfly a=6 h=1", "Dragonfly(6,1):", make_dragonfly(6, 1)});

  ParallelSweep sweep(common.jobs);
  sweep.map<StudyResult>(
      studies.size(),
      [&](std::size_t i) { return run_study(studies[i].graph, 4, seed); },
      [&](std::size_t i, const StudyResult& r) {
        const Study& st = studies[i];
        std::printf("%s stretch=%.3f acc=%.3f esc=%.3f\n", st.console,
                    r.stretch, r.accepted, r.escape_frac);
        t.row().cell(st.name).cell(static_cast<long>(st.graph.num_switches()))
            .cell(static_cast<long>(st.graph.num_links())).cell(r.stretch, 3)
            .cell(r.accepted, 4).cell(r.escape_frac, 4);
        ResultRecord rec;
        rec.kind = "rate";
        rec.task_id = make_task_id("ext_dragonfly_escape", i);
        rec.label = st.name;
        rec.mechanism = "MinSP";
        rec.pattern = "uniform";
        rec.offered = 1.0;
        rec.seed = seed;
        rec.accepted = r.accepted;
        rec.escape_frac = r.escape_frac;
        rec.extra = "stretch=" + format_double(r.stretch, 6) +
                    ";switches=" + std::to_string(st.graph.num_switches()) +
                    ";links=" + std::to_string(st.graph.num_links());
        sink.add(std::move(rec));
        std::fflush(stdout);
      });

  std::printf("\n%s\n", t.str().c_str());
  std::printf("Expectation: stretch near 1 on the HyperX (escape keeps most\n"
              "shortest paths), clearly above 1 on the Dragonflies — \"more\n"
              "effort to adapt to other topologies should be done\" (§7).\n");
  bench::persist(opt, sink, "ext_dragonfly_escape");
  return 0;
}
