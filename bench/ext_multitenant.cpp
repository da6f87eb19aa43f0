/// \file ext_multitenant.cpp
/// Extension study: a shared fabric serving several tenants at once.
///
/// Every cell admits a mix of jobs (workload shape + server demand +
/// arrival cycle) onto one HyperX through a placement policy
/// (src/tenant/) and reports per-tenant SLOs: queue wait, completion
/// span, p99 message latency, and slowdown against an isolated run of
/// the same job on the same servers. Faults come in two flavours —
/// "uniform" prefixes of one seeded random sequence (like Fig 6), and
/// "targeted" sets confined to the switch region where the contiguous
/// policy places tenant 0 — so the sweep measures cross-tenant blast
/// radius: how much a fault burst inside one tenant's partition hurts
/// the *other* tenants under each placement.
///
/// Each (placement, job mix, fault fraction, fault mode) cell is a
/// `multitenant` TaskSpec on a TaskGrid: run in-process across a
/// ParallelSweep pool (--jobs=N, bit-identical at any worker count) or
/// emitted as a manifest (--emit-tasks) for hxsp_runner.
///
/// Usage: ext_multitenant [--dims=2] [--side=8] [--sps=1] [--vcs=4]
///          [--placements=contiguous,striped,random] [--mixes=pair,quads]
///          [--fault-fracs=0,0.04,0.08] [--fault-modes=uniform,targeted]
///          [--mech=polsp] [--msg-packets=4] [--stagger=2000]
///          [--no-baseline] [--bucket=2000] [--deadline=N] [--seed=N]
///          [--csv[=file]] [--jobs=N] [--emit-tasks[=file]]

#include <map>

#include "bench_util.hpp"
#include "tenant/scheduler.hpp"
#include "topology/faults.hpp"

using namespace hxsp;

namespace {

/// The named job mixes: fractions of the fabric, workload shapes and
/// arrival offsets (in units of --stagger). "pair" splits the fabric
/// between two half-size jobs; "quads" runs four quarter-size jobs with
/// a staggered second wave; "burst" oversubscribes — three half-size
/// jobs, so the third must queue until a predecessor finishes.
struct MixJob {
  const char* workload;
  int denom;      ///< demand = max(2, num_servers / denom)
  int wave;       ///< arrival = wave * stagger
};

const std::map<std::string, std::vector<MixJob>>& job_mixes() {
  static const std::map<std::string, std::vector<MixJob>> mixes = {
      {"pair", {{"alltoall", 2, 0}, {"ring_allreduce", 2, 0}}},
      {"quads",
       {{"alltoall", 4, 0},
        {"ring_allreduce", 4, 0},
        {"halo2d", 4, 1},
        {"shuffle", 4, 1}}},
      {"burst",
       {{"alltoall", 2, 0}, {"ring_allreduce", 2, 0}, {"alltoall", 2, 1}}},
  };
  return mixes;
}

/// Connectivity-preserving fault draw confined to the switches
/// [0, region): the slab where the contiguous policy places the mix's
/// first tenant. Returns at most \p count links (a small region may not
/// afford more without splitting the network).
std::vector<LinkId> targeted_fault_links(const Graph& g, SwitchId region,
                                         int count, Rng& rng) {
  std::vector<LinkId> candidates;
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const auto& e = g.link(l);
    if (e.a < region && e.b < region) candidates.push_back(l);
  }
  rng.shuffle(candidates);
  Graph scratch = g;
  std::vector<LinkId> out;
  for (LinkId l : candidates) {
    if (static_cast<int>(out.size()) == count) break;
    scratch.fail_link(l);
    if (scratch.connected()) {
      out.push_back(l);
    } else {
      scratch.restore_link(l);
    }
  }
  return out;
}

} // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const int dims = opt.get_int_as<int>("dims", 2);
  ExperimentSpec base = spec_from_options(opt, dims);
  // One server per switch by default, like ext_workloads: jobs address
  // servers, and the paper convention (sps = side) would square the
  // message count.
  if (!opt.has("sps")) base.servers_per_switch = 1;
  base.sim.num_vcs = opt.get_int_as<int>("vcs", base.sim.num_vcs);
  base.mechanism = opt.get("mech", "polsp");

  const std::vector<std::string> placements =
      opt.get_list("placements", placement_names());
  const std::vector<std::string> mixes = opt.get_list("mixes", {"pair", "quads"});
  const std::vector<double> fracs =
      opt.get_double_list("fault-fracs", {0.0, 0.04, 0.08});
  const std::vector<std::string> modes =
      opt.get_list("fault-modes", {"uniform", "targeted"});
  const int msg_packets = opt.get_int_as<int>("msg-packets", 4);
  const Cycle stagger = opt.get_int("stagger", 2000);
  const Cycle bucket = opt.get_int("bucket", 2000);
  const Cycle deadline = opt.get_int("deadline", 4000000);
  const bool baseline = !opt.has("no-baseline");
  const bench::CommonOptions common(opt);

  HyperX scratch(base.sides, base.resolved_servers_per_switch());
  const ServerId num_servers = scratch.num_servers();
  const int sps = scratch.servers_per_switch();
  const int num_links = static_cast<int>(scratch.graph().num_links());

  // Job lists per mix, fixed before the sweep so every cell of a mix
  // shares them exactly.
  std::map<std::string, MultitenantParams> mix_params;
  for (const std::string& mix : mixes) {
    const auto it = job_mixes().find(mix);
    HXSP_CHECK_MSG(it != job_mixes().end(), "unknown job mix");
    MultitenantParams p;
    p.isolated_baseline = baseline;
    for (const MixJob& mj : it->second) {
      JobSpec j;
      j.workload.name = mj.workload;
      j.workload.msg_packets = msg_packets;
      j.demand = std::max<ServerId>(2, num_servers / mj.denom);
      j.arrival = static_cast<Cycle>(mj.wave) * stagger;
      p.jobs.push_back(std::move(j));
    }
    mix_params[mix] = std::move(p);
  }

  // Fault sets. Uniform: cumulative prefixes of one seeded sequence
  // (frac A < B implies links(A) ⊂ links(B)), exactly like Fig 6.
  // Targeted: the same budget confined to tenant 0's contiguous slab —
  // the region covering the first job's demand — per mix.
  std::vector<std::vector<LinkId>> uniform_sets;
  for (double frac : fracs) {
    const int count = static_cast<int>(frac * num_links + 0.5);
    Rng frng(base.seed + 23);
    uniform_sets.push_back(
        random_fault_links(scratch.graph(), count, frng, true));
  }
  std::map<std::string, std::vector<std::vector<LinkId>>> targeted_sets;
  for (const std::string& mix : mixes) {
    const ServerId demand0 = mix_params[mix].jobs.front().demand;
    const SwitchId region = static_cast<SwitchId>((demand0 + sps - 1) / sps);
    std::vector<std::vector<LinkId>> sets;
    for (double frac : fracs) {
      const int count = static_cast<int>(frac * num_links + 0.5);
      Rng frng(base.seed + 29);
      sets.push_back(
          targeted_fault_links(scratch.graph(), region, count, frng));
    }
    targeted_sets[mix] = std::move(sets);
  }

  TaskGrid grid("ext_multitenant");
  struct Cell {
    std::size_t placement, mix, frac, mode;
  };
  std::vector<Cell> cells;
  for (std::size_t pi = 0; pi < placements.size(); ++pi) {
    for (std::size_t xi = 0; xi < mixes.size(); ++xi) {
      MultitenantParams params = mix_params[mixes[xi]];
      params.placement = placements[pi];
      for (std::size_t fi = 0; fi < fracs.size(); ++fi) {
        for (std::size_t di = 0; di < modes.size(); ++di) {
          const std::vector<LinkId>& links =
              modes[di] == "targeted" ? targeted_sets[mixes[xi]][fi]
                                      : uniform_sets[fi];
          ExperimentSpec s = base;
          s.fault_links = links;
          TaskSpec task = TaskSpec::multitenant(s, params, bucket, deadline);
          task.label = mixes[xi];
          char extra[96];
          std::snprintf(extra, sizeof extra,
                        "mix=%s;fault_frac=%g;faults=%zu;fault_mode=%s",
                        mixes[xi].c_str(), fracs[fi], links.size(),
                        modes[di].c_str());
          task.extra = extra;
          grid.add(std::move(task));
          cells.push_back({pi, xi, fi, di});
        }
      }
    }
  }
  if (bench::maybe_emit_tasks(common, grid)) return 0;

  bench::banner("Extension — multi-tenant fabric: placement x job mix x "
                "fault fraction (per-tenant SLOs)",
                base);
  std::printf("Placements: ");
  for (const auto& p : placements) std::printf("%s ", p.c_str());
  std::printf("| mixes: ");
  for (const auto& m : mixes) std::printf("%s ", m.c_str());
  std::printf("| servers=%d\n\n", num_servers);

  ResultSink sink("ext_multitenant");
  bench::run_grid(grid, common, sink,
                  [&](std::size_t gi, const TaskSpec& task,
                      const TaskResult& result) {
    const Cell& c = cells[gi];
    const MultitenantResult& res = std::get<MultitenantResult>(result);
    Cycle max_wait = 0;
    double max_slow = 0;
    for (const TenantJobStats& st : res.jobs) {
      max_wait = std::max(max_wait, st.queue_wait());
      max_slow = std::max(max_slow, st.slowdown);
    }
    std::printf("%-11s %-6s frac=%-5g %-9s %s makespan=%8ld  wait=%6ld  "
                "x%.2f\n",
                res.placement.c_str(), task.label.c_str(), fracs[c.frac],
                modes[c.mode].c_str(), res.drained ? "drained " : "DEADLINE",
                static_cast<long>(res.completion_time),
                static_cast<long>(max_wait), max_slow);
    std::fflush(stdout);
  });
  std::printf("\nExpectation: contiguous placement contains a targeted fault\n"
              "burst inside tenant 0's slab (other tenants keep slowdown\n"
              "near 1.0); striped and random placements spread every tenant\n"
              "through the blast radius and pay it fabric-wide.\n");
  bench::persist(opt, sink, "ext_multitenant");
  return 0;
}
