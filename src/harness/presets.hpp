#pragma once
/// \file presets.hpp
/// Canonical experiment configurations.
///
/// The paper evaluates a 2D HyperX of side 16 and a 3D HyperX of side 8
/// (4096 servers each, Table 3). Those runs take minutes per point on one
/// core, so every bench defaults to a *reduced* preset — same topology
/// family, same VC budget, shorter warmup — that preserves all the
/// qualitative results, and accepts --paper for the full-scale
/// configuration. README's "Bench drivers → paper artefacts" table maps
/// each driver to the paper artefact it regenerates.

#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "util/options.hpp"

namespace hxsp {

/// 2D HyperX preset: paper scale = 16x16 (4 VCs), reduced = 8x8 (4 VCs).
ExperimentSpec preset_2d(bool paper);

/// 3D HyperX preset: paper scale = 8x8x8 (6 VCs), reduced = 4x4x4 (6 VCs).
ExperimentSpec preset_3d(bool paper);

/// Offered-load sweep used by the throughput/latency/Jain figures.
std::vector<double> default_loads(bool paper);

/// Applies the common bench CLI options to a spec:
///   --paper, --side, --sps, --vcs, --warmup, --measure, --seed,
///   --memoryless-escape (the paper's memoryless escape rule instead of
///   the default strict up*/down* phases), --no-shortcuts, --root,
///   --hotspot-fraction, --hotspot-count (randomized-pattern knobs),
///   --audit=K (invariant auditor every K cycles, 0 = off),
///   --telemetry-window=W (windowed telemetry every W cycles, 0 = off),
///   --trace-sample=K (trace packets with id % K == 0, 0 = off),
///   --flight-recorder=N (keep the last N engine events per network).
/// \p dims selects the base preset (2 or 3).
ExperimentSpec spec_from_options(const Options& opt, int dims);

/// Standard "Simulation parameters" header every bench prints (Table 2).
std::string describe_sim_parameters(const SimConfig& cfg);

} // namespace hxsp
