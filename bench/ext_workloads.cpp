/// \file ext_workloads.cpp
/// Extension study: message-level workload completion under faults.
///
/// The paper measures steady-state rate traffic plus one batch
/// completion race (Fig 10); this bench asks the application-level
/// question instead: how much slower does a collective or stencil
/// exchange *finish* when a fraction of the links is down? Every cell
/// runs a built-in workload generator (src/workload/) — dependency-
/// gated messages, injected through the servers' message-queue mode —
/// against a fault set drawn as a prefix of one seeded random sequence,
/// so growing fault fractions are cumulative exactly like Fig 6.
///
/// Each (workload, fault fraction, mechanism) cell is a `workload`
/// TaskSpec on a TaskGrid: run in-process across a ParallelSweep pool
/// (--jobs=N, bit-identical at any worker count) or emitted as a
/// manifest (--emit-tasks) for hxsp_runner.
///
/// Usage: ext_workloads [--dims=2] [--side=8] [--sps=1] [--vcs=4]
///          [--workloads=alltoall,ring_allreduce,halo2d,shuffle]
///          [--mechs=polsp,omnisp] [--fault-fracs=0,0.04,0.08]
///          [--msg-packets=4] [--rounds=1] [--fanout=2] [--trace=FILE]
///          [--bucket=2000] [--deadline=N] [--seed=N] [--csv[=file]]
///          [--jobs=N] [--emit-tasks[=file]]

#include <map>

#include "bench_util.hpp"
#include "topology/faults.hpp"
#include "workload/workload.hpp"

using namespace hxsp;

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const int dims = opt.get_int_as<int>("dims", 2);
  ExperimentSpec base = spec_from_options(opt, dims);
  // One server per switch by default: workloads address servers, and the
  // paper convention (sps = side) would square the message count.
  if (!opt.has("sps")) base.servers_per_switch = 1;
  base.sim.num_vcs = opt.get_int_as<int>("vcs", base.sim.num_vcs);

  WorkloadParams wparams;
  wparams.msg_packets = opt.get_int_as<int>("msg-packets", 4);
  wparams.rounds = opt.get_int_as<int>("rounds", 1);
  wparams.fanout = opt.get_int_as<int>("fanout", 2);
  wparams.trace = opt.get("trace", "");
  const std::vector<std::string> workloads = opt.get_list(
      "workloads", {"alltoall", "ring_allreduce", "halo2d", "shuffle"});
  const std::vector<std::string> mechs =
      opt.get_list("mechs", bench::surepath_mechanisms());
  const std::vector<double> fracs =
      opt.get_double_list("fault-fracs", {0.0, 0.04, 0.08});
  const Cycle bucket = opt.get_int("bucket", 2000);
  const Cycle deadline = opt.get_int("deadline", 4000000);
  const bench::CommonOptions common(opt);

  // Cumulative fault prefixes: one identically-seeded sequence per
  // fraction, so frac A < B implies links(A) is a prefix of links(B).
  // Drawn once per fraction — the keep-connected draw runs a
  // reachability check per link, too costly to repeat per workload.
  HyperX scratch(base.sides, base.resolved_servers_per_switch());
  const int num_links = static_cast<int>(scratch.graph().num_links());
  std::vector<std::vector<LinkId>> fault_sets;
  for (double frac : fracs) {
    const int count = static_cast<int>(frac * num_links + 0.5);
    Rng frng(base.seed + 23);
    fault_sets.push_back(random_fault_links(scratch.graph(), count, frng, true));
  }

  TaskGrid grid("ext_workloads");
  struct Cell {
    std::size_t workload, frac, mech;
  };
  std::vector<Cell> cells;
  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    WorkloadParams wp = wparams;
    wp.name = workloads[wi];
    for (std::size_t fi = 0; fi < fracs.size(); ++fi) {
      const std::vector<LinkId>& links = fault_sets[fi];
      for (std::size_t mi = 0; mi < mechs.size(); ++mi) {
        ExperimentSpec s = base;
        s.mechanism = mechs[mi];
        s.fault_links = links;
        TaskSpec task = TaskSpec::workload(s, wp, bucket, deadline);
        task.label = wp.name;
        char extra[64];
        std::snprintf(extra, sizeof extra, "fault_frac=%g;faults=%zu",
                      fracs[fi], links.size());
        task.extra = extra;
        grid.add(std::move(task));
        cells.push_back({wi, fi, mi});
      }
    }
  }
  if (bench::maybe_emit_tasks(common, grid)) return 0;

  bench::banner("Extension — workload completion vs fault fraction "
                "(message-level collectives over SurePath)",
                base);
  std::printf("Workloads: ");
  for (const auto& w : workloads) std::printf("%s ", w.c_str());
  std::printf("| msg=%d pkts | servers=%d\n\n", wparams.msg_packets,
              scratch.num_servers());

  ResultSink sink("ext_workloads");
  // Healthy (first-fraction) completion per (workload, mech): console
  // degradation context, recomputable from the CSV by the plot preset.
  std::map<std::pair<std::size_t, std::size_t>, Cycle> healthy;
  bench::run_grid(grid, common, sink,
                  [&](std::size_t gi, const TaskSpec&,
                      const TaskResult& result) {
    const Cell& c = cells[gi];
    const WorkloadResult& res = std::get<WorkloadResult>(result);
    const auto key = std::make_pair(c.workload, c.mech);
    if (c.frac == 0) healthy[key] = res.completion_time;
    double slowdown = 0.0;
    if (healthy.count(key) && healthy[key] > 0)
      slowdown = static_cast<double>(res.completion_time) /
                 static_cast<double>(healthy[key]);
    std::printf("%-14s %-10s frac=%-5g %s completion=%8ld  p99_msg=%6ld  "
                "x%.2f\n",
                res.workload.c_str(), res.mechanism.c_str(), fracs[c.frac],
                res.drained ? "drained " : "DEADLINE",
                static_cast<long>(res.completion_time),
                static_cast<long>(res.p99_msg_latency), slowdown);
    std::fflush(stdout);
  });
  std::printf("\nExpectation: completion time degrades gracefully with the\n"
              "fault fraction under SurePath (escape hops absorb the broken\n"
              "rows); compare --mechs=polsp,escape for the escape-only\n"
              "lower bound.\n");
  bench::persist(opt, sink, "ext_workloads");
  return 0;
}
