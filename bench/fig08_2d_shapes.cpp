/// \file fig08_2d_shapes.cpp
/// Reproduces paper Figure 8 (with Figure 7's fault shapes): saturation
/// throughput of OmniSP and PolSP on the 2D HyperX when all links inside a
/// Row / Subplane / Cross are removed, compared against the healthy
/// network. As in the paper, the escape-subnetwork root is placed inside
/// the faulted region ("seeking for a more stressful situation").
///
/// Shapes at paper scale (16x16): Row = K16 (120 links), Subplane = 5x5
/// (100 links), Cross = two 11-switch segments (110 links, the root keeps
/// 1/3 of its links). Reduced scale mirrors the proportions.
///
/// The grid is a TaskGrid: run in-process across a ParallelSweep pool
/// (--jobs=N, bit-identical at any worker count) or emitted as a manifest
/// (--emit-tasks) for hxsp_runner.
///
/// Usage: fig08_2d_shapes [--paper] [--csv[=file]] [--seed=N] [--jobs=N]
///                        [--emit-tasks[=file]]

#include "bench_util.hpp"
#include "topology/faults.hpp"

using namespace hxsp;

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const bool paper = opt.get_bool("paper", false);
  ExperimentSpec base = spec_from_options(opt, 2);
  bench::quick_cycles(opt, paper, base);
  base.sim.num_vcs = opt.get_int_as<int>("vcs", 4);
  const bench::CommonOptions common(opt);

  const int side = base.sides[0];
  HyperX scratch(base.sides, base.resolved_servers_per_switch());

  // Shape definitions scale with the side: Row is always the full row;
  // Subplane is ~1/3 of the side; Cross segments leave a margin of ~1/3.
  const int sub = std::max(2, side * 5 / 16);     // 5 at side 16
  const int seg = std::max(3, side * 11 / 16);    // 11 at side 16
  const SwitchId center = scratch.switch_at({side / 3, side / 3});

  std::vector<bench::ShapeDef> shapes;
  shapes.push_back({"Row", row_fault(scratch, 0, {0, side / 3})});
  shapes.push_back({"Subplane",
                    subcube_fault(scratch, {0, 0}, {sub, sub})});
  shapes.push_back({"Cross", star_fault(scratch, center, seg)});

  const bench::ShapeGrid sg =
      bench::build_shape_grid("fig08_2d_shapes", base, shapes,
                              bench::patterns_2d());
  if (bench::maybe_emit_tasks(common, sg.grid)) return 0;

  bench::banner("Figure 8 — 2D HyperX with shaped fault regions "
                "(root inside the fault set)",
                base);

  ResultSink sink("fig08_2d_shapes");
  bench::run_shape_grid(sg, common, 9, sink);
  std::printf("\nPaper shape check: Row and Subplane cost ~11%%; Cross is the\n"
              "stressful one (root loses 2/3 of its links), with the largest\n"
              "drop under Uniform (~37%% in the paper).\n");
  bench::persist(opt, sink, "fig08_2d_shapes");
  return 0;
}
