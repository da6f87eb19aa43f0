/// \file micro_engine.cpp
/// Google-benchmark microbenchmarks of single operations the repository
/// benchmark does not isolate: BFS / all-pairs tables, escape
/// construction, candidate generation for each routing algorithm and for
/// the SurePath mechanisms, workload set-up (build, validate and run
/// construction) and the parallel sweep's fan-out. Whole runs
/// are timed by benchmark/ alone. These are engineering benchmarks
/// (simulator cost), not paper reproductions.

#include <benchmark/benchmark.h>

#include "core/escape_updown.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "routing/factory.hpp"
#include "routing/omnidimensional.hpp"
#include "routing/polarized.hpp"
#include "workload/run.hpp"
#include "workload/workload.hpp"

namespace hxsp {
namespace {

void BM_ApspBfs(benchmark::State& state) {
  const HyperX hx = HyperX::regular(2, static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    DistanceTable d(hx.graph());
    benchmark::DoNotOptimize(d.at(0, hx.num_switches() - 1));
  }
  state.SetItemsProcessed(state.iterations() * hx.num_switches());
}
BENCHMARK(BM_ApspBfs)->Arg(8)->Arg(16);

void BM_EscapeConstruction(benchmark::State& state) {
  const HyperX hx = HyperX::regular(2, static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    EscapeUpDown esc(hx.graph(), {.root = 0, .strict_phase = false, .penalties = {}, .use_shortcuts = true});
    benchmark::DoNotOptimize(esc.updown_distance(1, 2));
  }
}
BENCHMARK(BM_EscapeConstruction)->Arg(8)->Arg(16);

void BM_EscapeUpDownCandidates(benchmark::State& state) {
  const HyperX hx = HyperX::regular(2, 8, 1);
  EscapeUpDown esc(hx.graph(), {.root = 0, .strict_phase = false, .penalties = {}, .use_shortcuts = true});
  std::vector<Candidate> out;
  SwitchId c = 1;
  for (auto _ : state) {
    out.clear();
    esc.candidates(c, (c + 13) % hx.num_switches(), false, out);
    benchmark::DoNotOptimize(out.data());
    c = (c + 1) % hx.num_switches();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EscapeUpDownCandidates);

template <typename Algo>
void BM_RouteCandidates(benchmark::State& state) {
  const HyperX hx = HyperX::regular(3, 8, 1);
  DistanceTable dist(hx.graph());
  NetworkContext ctx{&hx.graph(), &hx, &dist, nullptr, 6};
  Algo algo;
  Packet p;
  p.src_switch = 0;
  p.dst_switch = hx.num_switches() - 1;
  p.dst_server = hx.num_servers() - 1;
  std::vector<Candidate> out;
  SwitchId c = 0;
  for (auto _ : state) {
    out.clear();
    if (c != p.dst_switch) algo.ports(ctx, p, c, out);
    benchmark::DoNotOptimize(out.data());
    c = (c + 1) % hx.num_switches();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteCandidates<OmnidimensionalAlgorithm>);
BENCHMARK(BM_RouteCandidates<PolarizedAlgorithm>);

/// A SurePath mechanism's whole candidate list — base ports over the
/// routing VCs, then the escape ports, one port-level entry each: the work
/// a head does once when its candidate cache is filled.
void BM_MechanismCandidates(benchmark::State& state, const char* name) {
  const HyperX hx = HyperX::regular(3, 8, 1);
  DistanceTable dist(hx.graph());
  EscapeUpDown esc(hx.graph(), {.root = 0, .strict_phase = true, .penalties = {}, .use_shortcuts = true});
  NetworkContext ctx{&hx.graph(), &hx, &dist, &esc, 4};
  const std::unique_ptr<RoutingMechanism> mech = make_mechanism(name);
  Packet p;
  p.src_switch = 0;
  p.dst_switch = hx.num_switches() - 1;
  p.dst_server = hx.num_servers() - 1;
  std::vector<Candidate> out;
  SwitchId c = 0;
  for (auto _ : state) {
    out.clear();
    if (c != p.dst_switch) mech->candidates(ctx, p, c, out);
    benchmark::DoNotOptimize(out.data());
    c = (c + 1) % hx.num_switches();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_MechanismCandidates, omnisp, "omnisp");
BENCHMARK_CAPTURE(BM_MechanismCandidates, polsp, "polsp");

void BM_WorkloadBuild(benchmark::State& state, const char* name,
                      ServerId servers) {
  // What a workload task does before its first cycle: generate and wire
  // the message list, validate it, and build the run's per-message state.
  WorkloadParams p;
  p.name = name;
  std::size_t messages = 0;
  for (auto _ : state) {
    Rng rng(1);
    MessageList msgs = make_workload(p)->build(servers, rng);
    validate_workload(msgs, servers);
    const WorkloadRun run(std::move(msgs));
    messages = run.num_messages();
    benchmark::DoNotOptimize(&run);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(messages));
}
BENCHMARK_CAPTURE(BM_WorkloadBuild, ring_allreduce_512, "ring_allreduce", 512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WorkloadBuild, alltoall_256, "alltoall", 256)
    ->Unit(benchmark::kMillisecond);

void BM_SweepFanout(benchmark::State& state) {
  // Scaling of the parallel sweep engine: a small rate grid fanned across
  // state.range(0) workers (the per-driver --jobs knob). On one core, the
  // extra time of Arg(2) and Arg(4) over Arg(1) is the engine's overhead.
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 4;
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.warmup = 500;
  s.measure = 1000;
  std::vector<TaskSpec> tasks;
  for (double load : {0.2, 0.4, 0.6, 0.8, 1.0})
    tasks.push_back(TaskSpec::rate(s, load));
  ParallelSweep sweep(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const auto results = sweep.run_tasks(tasks);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tasks.size()));
}
// Real time: the tasks run on worker threads, so the main thread's CPU
// time (the default clock) would make the rate meaningless.
BENCHMARK(BM_SweepFanout)
    ->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

} // namespace
} // namespace hxsp

BENCHMARK_MAIN();
