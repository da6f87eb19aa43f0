#pragma once
/// \file builders.hpp
/// Construction helpers for non-HyperX topologies.
///
/// SurePath's escape subnetwork is defined without HyperX-specific
/// knowledge (paper §7), so the simulator accepts any connected graph.
/// These builders provide the comparison/extension topologies used in
/// tests and the custom-topology example. Each one lists its edges and
/// calls the one Graph constructor, so its edge order fixes its port
/// numbers and link ids; an explicit edge list needs no builder, it is
/// Graph(n, edges).

#include <vector>

#include "topology/graph.hpp"
#include "util/rng.hpp"

namespace hxsp {

/// Complete graph K_n: every pair of switches linked.
Graph make_complete(SwitchId n);

/// 2D mesh (grid) of rows x cols switches, no wraparound.
Graph make_mesh(int rows, int cols);

/// 2D torus of rows x cols switches (wraparound links; sides must be >= 3
/// to avoid parallel links).
Graph make_torus(int rows, int cols);

/// Random \p degree-regular connected graph over \p n switches via the
/// pairing model with retries; aborts after too many failed attempts.
/// n * degree must be even and degree < n.
Graph make_random_regular(SwitchId n, int degree, Rng& rng);

/// Canonical Dragonfly switch graph: g = a*h + 1 groups of `a` switches;
/// groups are complete graphs; each switch owns `h` global links and the
/// g*(g-1)/2 group pairs are connected by exactly a*h/(g-1) = 1 global
/// link each, assigned in the standard palmtree arrangement.
///
/// Used by the §7 extension study: the Up/Down escape contains shortest
/// paths in a HyperX but *not* in a Dragonfly, so the escape accepts less
/// load there.
Graph make_dragonfly(int a, int h);

} // namespace hxsp
