#pragma once
/// \file pattern.hpp
/// Synthetic traffic patterns (paper §4).
///
/// A pattern maps a generating server to a destination server, either
/// randomly (uniform, hotspot) or through a fixed admissible permutation
/// (rsp, dcr, rpn, transpose, complement, shift). "Admissible" means no
/// endpoint contention: every server is the destination of exactly one
/// flow, so offered load 1.0 is feasible at the endpoints and any
/// saturation measured is the network's fault. make_traffic tabulates
/// each fixed permutation once and aborts if the table is not a
/// bijection, so a generated packet's destination is one load.

#include <memory>
#include <string>

#include "topology/hyperx.hpp"
#include "util/fields.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace hxsp {

/// Interface implemented by every traffic pattern.
class TrafficPattern {
 public:
  virtual ~TrafficPattern() = default;

  /// Destination for a message generated by \p src. \p rng is used only by
  /// randomized patterns (uniform, hotspot); permutations ignore it.
  virtual ServerId destination(ServerId src, Rng& rng) const = 0;
};

/// Tunable parameters of the randomized patterns. Pure data: lives in
/// ExperimentSpec, is settable from every driver CLI (--hotspot-fraction,
/// --hotspot-count) and round-trips losslessly through the spec JSON
/// codec — the defaults reproduce the previously hard-coded construction
/// (10% of traffic to the single server num_servers/2) exactly.
struct TrafficParams {
  double hotspot_fraction = 0.1; ///< share of messages aimed at a hot server
  int hotspot_count = 1;         ///< number of hot servers (spread evenly)
};

/// Field table: JSON keys, equality (util/fields.hpp).
inline const auto& field_table(const TrafficParams*) {
  static const auto table = std::make_tuple(
      field("hotspot_fraction", &TrafficParams::hotspot_fraction),
      field("hotspot_count", &TrafficParams::hotspot_count));
  return table;
}

inline bool operator==(const TrafficParams& a, const TrafficParams& b) {
  return fields_equal(a, b);
}
inline bool operator!=(const TrafficParams& a, const TrafficParams& b) {
  return !(a == b);
}

/// Factory: builds the pattern \p name over topology \p hx.
///
/// Recognised names: uniform, rsp (random server permutation),
/// dcr (dimension complement reverse; picks the 2D/3D variant from the
/// topology), rpn (regular permutation to neighbour), transpose,
/// complement, shift, hotspot. \p params shapes the randomized patterns
/// (currently hotspot); the other patterns ignore it.
std::unique_ptr<TrafficPattern> make_traffic(const std::string& name,
                                             const HyperX& hx, Rng& rng,
                                             const TrafficParams& params = {});

/// Names accepted by make_traffic, for CLI help and sweeps.
std::vector<std::string> traffic_names();

/// Uniform traffic over \p num_servers servers with no topology behind
/// them (the "uniform" of make_traffic, for hand-built graphs).
std::unique_ptr<TrafficPattern> make_uniform_traffic(ServerId num_servers);

} // namespace hxsp
