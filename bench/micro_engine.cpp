/// \file micro_engine.cpp
/// Google-benchmark microbenchmarks of the simulator's hot paths: BFS /
/// all-pairs tables, escape construction, per-cycle stepping of a loaded
/// network, and candidate generation for each routing algorithm. These are
/// engineering benchmarks (simulator cost), not paper reproductions.

#include <benchmark/benchmark.h>

#include "core/escape_updown.hpp"
#include "core/surepath.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "routing/factory.hpp"
#include "routing/omnidimensional.hpp"
#include "routing/polarized.hpp"

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

void BM_EscapeCandidates(benchmark::State& state) {
  const HyperX hx = HyperX::regular(2, 8, 1);
  EscapeUpDown esc(hx.graph(), {.root = 0, .strict_phase = false, .penalties = {}, .use_shortcuts = true});
  std::vector<EscapeCand> out;
  SwitchId c = 1;
  for (auto _ : state) {
    out.clear();
    esc.candidates(c, (c + 13) % hx.num_switches(), false, out);
    benchmark::DoNotOptimize(out.data());
    c = (c + 1) % hx.num_switches();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EscapeCandidates);

template <typename Algo>
void BM_RouteCandidates(benchmark::State& state) {
  const HyperX hx = HyperX::regular(3, 8, 1);
  DistanceTable dist(hx.graph());
  NetworkContext ctx{&hx.graph(), &hx, &dist, nullptr, 6, 16};
  Algo algo;
  Packet p;
  p.src_switch = 0;
  p.dst_switch = hx.num_switches() - 1;
  p.src_server = 0;
  p.dst_server = hx.num_servers() - 1;
  std::vector<PortCand> out;
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

void BM_NetworkStep(benchmark::State& state) {
  // Cost of one simulated cycle for a loaded 8x8 network under PolSP.
  ExperimentSpec s;
  s.sides = {8, 8};
  s.servers_per_switch = 8;
  s.mechanism = state.range(0) == 0 ? "omnisp" : "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  Experiment e(s);

  HyperX hx(s.sides, 8);
  DistanceTable dist(hx.graph());
  EscapeUpDown esc(hx.graph(), {.root = 0, .strict_phase = true, .penalties = {}, .use_shortcuts = true});
  auto mech = make_mechanism(s.mechanism);
  NetworkContext ctx{&hx.graph(), &hx, &dist, &esc, 4, 16};
  Rng seed(1);
  auto traffic = make_traffic("uniform", hx, seed);
  Network net(ctx, *mech, *traffic, s.sim, 8, 42);
  net.set_offered_load(0.7);
  net.run_cycles(2000); // reach steady state before measuring

  for (auto _ : state) net.run_cycles(1);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(s.mechanism);
}
BENCHMARK(BM_NetworkStep)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_Step(benchmark::State& state) {
  // Per-cycle engine cost across the load regimes the hot-path overhaul
  // targets: arg = offered load in percent (10 = active-set regime, 55 =
  // uncongested flow, 80 = congestion knee, 95 = saturation). Whole runs
  // are timed by benchmark/hxsp_bench (see benchmark/README.md).
  ExperimentSpec s;
  s.sides = {8, 8};
  s.servers_per_switch = 8;
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  Experiment e(s);
  Network net(e.context(), e.mechanism(), e.traffic(), s.sim,
              s.resolved_servers_per_switch(), 42);
  const double load = static_cast<double>(state.range(0)) / 100.0;
  net.set_offered_load(load);
  net.run_cycles(2000); // reach steady state before measuring

  for (auto _ : state) net.run_cycles(1);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("load=" + std::to_string(state.range(0)) + "%");
}
BENCHMARK(BM_Step)->Arg(10)->Arg(55)->Arg(80)->Arg(95)
    ->Unit(benchmark::kMicrosecond);

void BM_PacketPool(benchmark::State& state) {
  // Pool churn at engine burst size versus the heap round-trip it
  // replaced (see BM_PacketHeap): acquire/release of `burst` packets.
  const int burst = static_cast<int>(state.range(0));
  ObjectPool<Packet> pool;
  std::vector<PacketPtr> held;
  held.reserve(static_cast<std::size_t>(burst));
  for (auto _ : state) {
    for (int i = 0; i < burst; ++i) held.push_back(pool.make());
    benchmark::DoNotOptimize(held.data());
    held.clear(); // releases back to the freelist
  }
  state.SetItemsProcessed(state.iterations() * burst);
}
BENCHMARK(BM_PacketPool)->Arg(1)->Arg(64);

void BM_PacketHeap(benchmark::State& state) {
  // Baseline for BM_PacketPool: the make_unique/delete round-trip the
  // seed engine performed per message.
  const int burst = static_cast<int>(state.range(0));
  std::vector<std::unique_ptr<Packet>> held;
  held.reserve(static_cast<std::size_t>(burst));
  for (auto _ : state) {
    for (int i = 0; i < burst; ++i) held.push_back(std::make_unique<Packet>());
    benchmark::DoNotOptimize(held.data());
    held.clear();
  }
  state.SetItemsProcessed(state.iterations() * burst);
}
BENCHMARK(BM_PacketHeap)->Arg(1)->Arg(64);

void BM_Workload(benchmark::State& state) {
  // Workload-mode stepping cost, tracked next to BM_Step: one full
  // message-level collective per iteration — dependency release cascade,
  // message-queue injection, per-packet consume attribution. Arg 0 is the
  // latency-bound ring all-reduce (long dependency chain, few packets in
  // flight), arg 1 the throughput-bound staged all-to-all.
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 1;
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  Experiment e(s);
  WorkloadParams p;
  p.name = state.range(0) == 0 ? "ring_allreduce" : "alltoall";
  p.msg_packets = 2;
  for (auto _ : state) {
    const WorkloadResult r = e.run_workload(p, 2000, 4000000);
    benchmark::DoNotOptimize(r.completion_time);
  }
  state.SetLabel(p.name);
}
BENCHMARK(BM_Workload)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SimulationPoint(benchmark::State& state) {
  // Full cost of one reduced-scale load point (what each figure bench pays
  // per table cell).
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 4;
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.warmup = 500;
  s.measure = 1000;
  for (auto _ : state) {
    Experiment e(s);
    const ResultRow r = e.run_load(0.8);
    benchmark::DoNotOptimize(r.accepted);
  }
}
BENCHMARK(BM_SimulationPoint)->Unit(benchmark::kMillisecond);

void BM_SweepFanout(benchmark::State& state) {
  // Scaling of the parallel sweep engine: a small rate grid fanned across
  // state.range(0) workers (the per-driver --jobs knob). On a single core
  // this measures pure engine overhead versus BM_SimulationPoint.
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
BENCHMARK(BM_SweepFanout)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace hxsp

BENCHMARK_MAIN();
