#include "harness/presets.hpp"

#include <cstdio>

namespace hxsp {

ExperimentSpec preset_2d(bool paper) {
  ExperimentSpec s;
  if (paper) {
    s.sides = {16, 16};
    s.warmup = 10000;
    s.measure = 20000;
  } else {
    s.sides = {8, 8};
    s.warmup = 4000;
    s.measure = 8000;
  }
  s.servers_per_switch = -1; // = side (paper convention)
  s.sim.num_vcs = 4;         // 2n for n = 2
  return s;
}

ExperimentSpec preset_3d(bool paper) {
  ExperimentSpec s;
  if (paper) {
    s.sides = {8, 8, 8};
    s.warmup = 10000;
    s.measure = 20000;
  } else {
    s.sides = {4, 4, 4};
    s.warmup = 4000;
    s.measure = 8000;
  }
  s.servers_per_switch = -1;
  s.sim.num_vcs = 6; // 2n for n = 3
  return s;
}

std::vector<double> default_loads(bool paper) {
  if (paper)
    return {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
  return {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
}

ExperimentSpec spec_from_options(const Options& opt, int dims) {
  const bool paper = opt.get_bool("paper", false);
  ExperimentSpec s = dims == 3 ? preset_3d(paper) : preset_2d(paper);
  const int side = opt.get_int_as<int>("side", s.sides[0]);
  s.sides.assign(static_cast<std::size_t>(dims), side);
  s.servers_per_switch = opt.get_int_as<int>("sps", -1);
  s.sim.num_vcs = opt.get_int_as<int>("vcs", s.sim.num_vcs);
  s.warmup = opt.get_int("warmup", s.warmup);
  s.measure = opt.get_int("measure", s.measure);
  s.seed = opt.get_int_as<std::uint64_t>("seed", 1);
  s.escape_strict_phase = !opt.get_bool("memoryless-escape", false);
  s.escape_shortcuts = !opt.get_bool("no-shortcuts", false);
  s.escape_root = opt.get_int_as<SwitchId>("root", 0);
  s.traffic_params.hotspot_fraction =
      opt.get_double("hotspot-fraction", s.traffic_params.hotspot_fraction);
  s.traffic_params.hotspot_count =
      opt.get_int_as<int>("hotspot-count", s.traffic_params.hotspot_count);
  // --audit=K: run the engine invariant auditor every K cycles (0 = off;
  // HXSP_AUDIT builds default it on). Pure checking — never changes output.
  s.sim.audit_interval = opt.get_int("audit", s.sim.audit_interval);
  // Telemetry knobs (PR 10). Pure observation — none of them changes a
  // byte of the simulation's results.
  s.sim.telemetry_window =
      opt.get_int("telemetry-window", s.sim.telemetry_window);
  s.sim.trace_sample =
      opt.get_int_as<int>("trace-sample", s.sim.trace_sample);
  s.sim.flight_recorder =
      opt.get_int_as<int>("flight-recorder", s.sim.flight_recorder);
  return s;
}

std::string describe_sim_parameters(const SimConfig& cfg) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "Simulation parameters (paper Table 2): input buffer %d pkts, "
                "output buffer %d pkts, VCT flow control, packet %d phits, "
                "link latency %d, crossbar latency %d, crossbar speedup %d, "
                "%d VCs",
                cfg.input_buffer_packets, cfg.output_buffer_packets,
                cfg.packet_length, cfg.link_latency, cfg.xbar_latency,
                cfg.xbar_speedup, cfg.num_vcs);
  return buf;
}

} // namespace hxsp
