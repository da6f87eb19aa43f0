#pragma once
/// \file computed_distance.hpp
/// O(N)-memory distance provider for HyperX: algebraic hop counts with an
/// exact BFS fallback near faults.
///
/// On a healthy HyperX the graph distance between two switches is their
/// Hamming distance h (the number of differing coordinates), and every
/// minimal path stays inside the *minimal subcube* of the pair: the 2^h
/// switches whose coordinate in each differing dimension is one of the
/// two endpoints' (and equal to both elsewhere). Faults only ever
/// lengthen distances, so d(a, b) >= hamming(a, b) always, and
/// d(a, b) == hamming(a, b) exactly when some minimal path survives.
///
/// Every minimal path visits only subcube corners (each hop fixes one
/// differing dimension), so "an intact minimal path exists" is decidable
/// exactly by a reachability DP over the 2^h corners using only alive
/// links. A switch is *dirty* when it is incident to a dead link; a hop
/// with a clean end is therefore always alive, and the DP probes a link
/// only when both of its corners are dirty. On a subcube with no dirty
/// corner the DP reads one dirty bit per corner and nothing else.
///
/// Note the criterion is per-subcube, not per-endpoint: with h >= 3 a
/// fault set can sever all minimal paths by killing only links *interior*
/// to the subcube while both endpoints keep every port — the parity trick
/// that works on bipartite graphs is unavailable because K_k has
/// triangles. The provider-vs-dense parity tests construct that exact
/// adversarial case.
///
/// Only pairs whose every minimal path is severed (so d > h) pay for an
/// exact BFS from the queried source. Such pairs are rare even on faulted
/// fabrics, so the row is not kept. Every query is exact, so simulation
/// output never depends on which tier answered.

#include <memory>
#include <vector>

#include "topology/distance.hpp"
#include "topology/hyperx.hpp"

namespace hxsp {

/// Computed distances over a HyperX (any fault state). O(N) memory: a
/// dirty bitset. Point queries cost O(dims) healthy; near faults O(h * 2^h)
/// for the minimal-path DP plus, for detoured pairs only, one O(V + E) BFS.
class ComputedHyperXDistance final : public DistanceProvider {
 public:
  /// Binds \p hx (must outlive the provider) and scans its current fault
  /// state.
  explicit ComputedHyperXDistance(const HyperX& hx);

  int at(SwitchId a, SwitchId b) const override;

  /// Never materializes rows: hot loops go through DistRow's at() path.
  const std::uint8_t* row_ptr(SwitchId) const override { return nullptr; }

  SwitchId num_switches() const override { return hx_->num_switches(); }

  bool connected() const override { return connected_; }

  /// Healthy: the number of dimensions (sides are all >= 2). Faulted:
  /// computed exactly by a full BFS sweep on first call and cached until
  /// the next rebuild — O(V*E), intended for stats and small graphs, not
  /// per-query use.
  int diameter() const override;

  /// Rescans the bound HyperX's fault state: dead-link count, the dirty
  /// set, connectivity. O(V + E).
  void rebuild() override;

  // --- introspection (tests, diagnostics) ---------------------------------

  /// Dead links seen by the last rebuild().
  int num_dead_links() const { return num_dead_; }

  /// Switches incident to at least one dead link. O(V).
  int num_dirty_switches() const;

  /// Queries answered by BFS because no minimal path survived (monotone).
  long fallback_rows_built() const { return rows_built_; }

 private:
  /// The minimal-path DP allocates its 2^h reachability table on the
  /// stack; wider pairs (never seen in practice — paper topologies have
  /// <= 3 dimensions) skip straight to the BFS fallback, which is exact
  /// for any width.
  static constexpr int kMaxDpDims = 10;

  /// True when some minimal a->b path uses only alive links (then
  /// d(a, b) == hamming(a, b)).
  bool minimal_path_intact(SwitchId a, SwitchId b) const;

  const HyperX* hx_;
  std::vector<std::int64_t> stride_;  ///< id delta per +1 coordinate step
  int num_dead_ = 0;
  bool connected_ = true;
  std::vector<char> dirty_;           ///< [switch] incident to a dead link

  mutable long rows_built_ = 0;
  mutable int faulted_diameter_ = -1; ///< lazy (-1 = not yet computed)
};

/// Dense tables above this switch count are both slow to build and heavy
/// (16k switches = 256 MB), so make_distance_provider switches to the
/// computed provider there. Every paper-scale configuration (8x8x8 = 512
/// switches) stays dense, so
/// provider selection cannot perturb existing goldens even in principle —
/// and the parity suite proves value-equality anyway.
constexpr SwitchId kDenseDistanceSwitchLimit = 4096;

/// Builds the distance provider for \p hx: the dense table up to
/// kDenseDistanceSwitchLimit switches, the computed provider beyond. The
/// HyperX must outlive the provider.
std::unique_ptr<DistanceProvider> make_distance_provider(const HyperX& hx);

} // namespace hxsp
