/// \file ext_dynamic_faults.cpp
/// Extension study: *online* fault injection. The paper evaluates static
/// fault sets ("the escape subnetwork would be built considering the
/// faults") and argues that recovery is a BFS table rebuild (§1, §3).
/// This bench performs that rebuild live: links die mid-simulation, the
/// distance/escape tables are recomputed, packets stranded on the dead
/// wire are dropped, and traffic continues. It reports the throughput
/// trace around each failure plus the steady state reached, and compares
/// against a run with the same faults applied statically (the end states
/// should agree — recovery converges; tests/sweep_tasks_test.cpp enforces
/// this invariant).
///
/// Each mechanism's dynamic run and its static reference are TaskSpecs on
/// a TaskGrid: run in-process across a ParallelSweep pool (--jobs=N,
/// bit-identical at any worker count) or emitted as a manifest
/// (--emit-tasks) for hxsp_runner.
///
/// Usage: ext_dynamic_faults [--paper] [--faults=N] [--csv[=file]]
///                           [--seed=N] [--jobs=N] [--emit-tasks[=file]]

#include "bench_util.hpp"
#include "topology/faults.hpp"

using namespace hxsp;

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const bool paper = opt.get_bool("paper", false);
  ExperimentSpec base = spec_from_options(opt, 2);
  if (!paper) {
    base.warmup = opt.get_int("warmup", 2000);
    base.measure = opt.get_int("measure", 12000);
  }
  base.sim.num_vcs = opt.get_int_as<int>("vcs", 4);
  const int nfaults = opt.get_int_as<int>("faults", 6);
  const bench::CommonOptions common(opt);

  HyperX scratch(base.sides, base.resolved_servers_per_switch());
  Rng frng(base.seed + 17);
  const auto links = random_fault_links(scratch.graph(), nfaults, frng, true);

  // One failure every measure/(n+1) cycles inside the window.
  std::vector<FaultEvent> events;
  for (int i = 0; i < nfaults; ++i)
    events.push_back({base.warmup + (i + 1) * base.measure / (nfaults + 1),
                      links[static_cast<std::size_t>(i)]});

  // Per mechanism: the dynamic run, then its static reference (same fault
  // set from cycle 0); grid order is the old serial print order.
  TaskGrid grid("ext_dynamic_faults");
  for (const auto& mech : bench::surepath_mechanisms()) {
    ExperimentSpec s = base;
    s.mechanism = mech;
    s.pattern = "uniform";
    TaskSpec dyn = TaskSpec::dynamic_faults(s, 0.7, events);
    dyn.label = "dynamic";
    dyn.extra = "faults=" + std::to_string(nfaults);
    grid.add(std::move(dyn));
    ExperimentSpec st = s;
    st.fault_links = links;
    TaskSpec ref = TaskSpec::rate(st, 0.7);
    ref.label = "static";
    ref.extra = "faults=" + std::to_string(nfaults);
    grid.add(std::move(ref));
  }
  if (bench::maybe_emit_tasks(common, grid)) return 0;

  bench::banner("Extension — online link failures with live BFS recovery",
                base);

  ResultSink sink("ext_dynamic_faults");
  bench::run_grid(grid, common, sink,
                  [&](std::size_t, const TaskSpec&, const TaskResult& result) {
    if (const DynamicResult* dyn = std::get_if<DynamicResult>(&result)) {
      std::printf("%s dynamic: accepted=%.3f dropped=%ld esc=%.3f\n",
                  dyn->row.mechanism.c_str(), dyn->row.accepted, dyn->dropped,
                  dyn->row.escape_frac);
      std::printf("  throughput trace (phits/cycle/server per %ld-cycle bucket):\n  ",
                  static_cast<long>(dyn->series.width()));
      for (std::size_t b = 0; b < dyn->series.num_buckets(); ++b)
        std::printf("%.2f ", dyn->series.rate(b, dyn->num_servers));
      std::printf("\n");
    } else {
      const ResultRow& ref = std::get<ResultRow>(result);
      std::printf("%s static reference: accepted=%.3f esc=%.3f\n\n",
                  ref.mechanism.c_str(), ref.accepted, ref.escape_frac);
    }
    std::fflush(stdout);
  });
  std::printf("Expectation: a brief dip and a handful of dropped packets per\n"
              "failure, then dynamic throughput converges to the static\n"
              "reference — \"the whole mechanism is guaranteed to work while\n"
              "there are possible paths\" (§1).\n");
  bench::persist(opt, sink, "ext_dynamic_faults");
  return 0;
}
