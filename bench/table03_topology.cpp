/// \file table03_topology.cpp
/// Reproduces paper Table 3: "Topological parameters" of the evaluated
/// 2D (16x16) and 3D (8x8x8) HyperX networks — switches, radix, servers,
/// links, diameter, average distance. Pure graph computation, so this
/// bench always runs at the paper's full scale.
///
/// The two all-pairs BFS tables are the expensive part and independent,
/// so they fan across the sweep pool via ParallelSweep::map (--jobs=N).
/// Graph measurements are not simulations, so --emit-tasks writes an
/// empty manifest (nothing for hxsp_runner to execute).
///
/// Usage: table03_topology [--jobs=N] [--csv[=file]]

#include "bench_util.hpp"
#include "topology/distance.hpp"
#include "topology/hyperx.hpp"

using namespace hxsp;

namespace {

/// The Table 3 row set for one topology.
struct TopoSummary {
  long switches = 0, radix = 0, sps = 0, servers = 0, links = 0, diameter = 0;
  double avg_distance = 0;
};

TopoSummary summarize(const HyperX& hx) {
  const DistanceTable dist(hx.graph());
  TopoSummary s;
  s.switches = hx.num_switches();
  s.radix = hx.radix();
  s.sps = hx.servers_per_switch();
  s.servers = hx.num_servers();
  s.links = hx.graph().num_links();
  s.diameter = dist.diameter();
  s.avg_distance = dist.average_distance();
  return s;
}

} // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const bench::CommonOptions common(opt);
  if (bench::maybe_emit_tasks(common, TaskGrid("table03_topology"))) return 0;

  std::printf("Table 3 — Topological parameters (paper values in brackets)\n\n");

  const HyperX h2 = HyperX::regular(2, 16);
  const HyperX h3 = HyperX::regular(3, 8);
  const HyperX* topos[] = {&h2, &h3};

  ParallelSweep sweep(common.jobs);
  const std::vector<TopoSummary> sums = sweep.map<TopoSummary>(
      2, [&](std::size_t i) { return summarize(*topos[i]); });

  const TopoSummary& s2 = sums[0];
  const TopoSummary& s3 = sums[1];
  Table t({"Parameter", "2D HyperX", "3D HyperX", "paper 2D", "paper 3D"});
  t.row().cell("Switches").cell(s2.switches).cell(s3.switches)
      .cell("256").cell("512");
  t.row().cell("Radix").cell(s2.radix).cell(s3.radix).cell("46").cell("29");
  t.row().cell("Servers per switch").cell(s2.sps).cell(s3.sps)
      .cell("16").cell("8");
  t.row().cell("Total servers").cell(s2.servers).cell(s3.servers)
      .cell("4096").cell("4096");
  t.row().cell("Links").cell(s2.links).cell(s3.links)
      .cell("3840").cell("5376");
  t.row().cell("Diameter").cell(s2.diameter).cell(s3.diameter)
      .cell("2").cell("3");
  t.row().cell("Avg. distance").cell(s2.avg_distance, 3)
      .cell(s3.avg_distance, 3).cell("1.8").cell("2.625");

  std::printf("%s\n", t.str().c_str());
  std::printf("Note: average distance is over ordered pairs including self\n"
              "(matches the paper's 2.625 for 3D; the paper prints 1.8 for\n"
              "2D where this convention gives 1.875).\n");

  ResultSink sink("table03_topology");
  const char* labels[] = {"2D HyperX 16x16", "3D HyperX 8x8x8"};
  for (std::size_t i = 0; i < sums.size(); ++i) {
    const TopoSummary& s = sums[i];
    ResultRecord rec;
    rec.kind = "graph";
    rec.task_id = make_task_id("table03_topology", i);
    rec.label = labels[i];
    rec.extra = "switches=" + std::to_string(s.switches) +
                ";radix=" + std::to_string(s.radix) +
                ";servers_per_switch=" + std::to_string(s.sps) +
                ";servers=" + std::to_string(s.servers) +
                ";links=" + std::to_string(s.links) +
                ";diameter=" + std::to_string(s.diameter) +
                ";avg_distance=" + format_double(s.avg_distance, 6);
    sink.add(std::move(rec));
  }
  bench::persist(opt, sink, "table03_topology");
  return 0;
}
