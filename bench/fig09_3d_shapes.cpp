/// \file fig09_3d_shapes.cpp
/// Reproduces paper Figure 9: saturation throughput of OmniSP and PolSP on
/// the 3D HyperX under shaped fault regions — Row (K8, 28 links), Subcube
/// (3x3x3, 81 links) and Star (three 7-switch segments, 63 links, leaving
/// the escape root with only 3 alive links) — for all four patterns, with
/// healthy references.
///
/// The grid is a TaskGrid: run in-process across a ParallelSweep pool
/// (--jobs=N, bit-identical at any worker count) or emitted as a manifest
/// (--emit-tasks) for hxsp_runner.
///
/// Usage: fig09_3d_shapes [--paper] [--csv[=file]] [--seed=N] [--jobs=N]
///                        [--emit-tasks[=file]]

#include "bench_util.hpp"
#include "topology/faults.hpp"

using namespace hxsp;

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const bool paper = opt.get_bool("paper", false);
  ExperimentSpec base = spec_from_options(opt, 3);
  bench::quick_cycles(opt, paper, base);
  base.sim.num_vcs = opt.get_int_as<int>("vcs", 4);
  const bench::CommonOptions common(opt);

  const int side = base.sides[0];
  HyperX scratch(base.sides, base.resolved_servers_per_switch());

  const int sub = std::max(2, side * 3 / 8);  // 3 at side 8
  const int seg = std::max(2, side - 1);      // 7 at side 8: root keeps n links
  const SwitchId center = scratch.switch_at(
      std::vector<int>(3, side / 2));

  std::vector<bench::ShapeDef> shapes;
  shapes.push_back({"Row", row_fault(scratch, 0, {0, side / 2, side / 2})});
  shapes.push_back({"Subcube", subcube_fault(scratch, {0, 0, 0}, {sub, sub, sub})});
  shapes.push_back({"Star", star_fault(scratch, center, seg)});

  const bench::ShapeGrid sg =
      bench::build_shape_grid("fig09_3d_shapes", base, shapes,
                              bench::patterns_3d());
  if (bench::maybe_emit_tasks(common, sg.grid)) return 0;

  bench::banner("Figure 9 — 3D HyperX with shaped fault regions "
                "(root inside the fault set)",
                base);
  {
    Graph g = scratch.graph();
    apply_faults(g, shapes.back().fault.links);
    std::printf("Star sanity: root alive links = %d (paper: 3)\n\n",
                g.alive_degree(center));
  }


  ResultSink sink("fig09_3d_shapes");
  bench::run_shape_grid(sg, common, 8, sink);
  std::printf("\nPaper shape check: Row/Subcube behave like the 2D case; the\n"
              "RPN pattern keeps PolSP ahead except under Star faults, where\n"
              "in-cast at the 3-link root changes the picture (see Fig 10).\n");
  bench::persist(opt, sink, "fig09_3d_shapes");
  return 0;
}
