#pragma once
/// \file distance.hpp
/// Shortest-path distance providers over the alive links of a Graph.
///
/// Distances are the backbone of every table-based routing in the paper:
/// Minimal, Valiant phases, Polarized (which reads distances to both
/// source and target) and the Up/Down escape construction. The paper only
/// ever needs point queries ("BFS at boot time, upgrade or failure",
/// §1/§3), so the routing layer consumes the abstract DistanceProvider
/// interface below and two implementations exist:
///
///  * DistanceTable — the dense O(N^2)-byte all-pairs table (one BFS per
///    switch). Exact for any graph, offers contiguous rows for hot loops,
///    and is the small-N reference implementation every other provider is
///    tested against.
///  * ComputedHyperXDistance (topology/computed_distance.hpp) — evaluates
///    HyperX hop counts algebraically in O(dims), checks near faults
///    whether a minimal path survives, and runs one BFS only for pairs
///    whose distance grew; O(N) memory, which is what lets a
///    million-server network exist at all.
///
/// Distances are rebuilt (rebuild()) whenever the fault set changes.

#include <cstdint>
#include <optional>
#include <vector>

#include "topology/graph.hpp"
#include "util/types.hpp"

namespace hxsp {

/// Abstract source of switch-to-switch hop counts over alive links.
class DistanceProvider {
 public:
  virtual ~DistanceProvider() = default;

  /// Distance from \p a to \p b in hops; kUnreachable when disconnected.
  /// Symmetric (links are undirected): at(a, b) == at(b, a).
  virtual int at(SwitchId a, SwitchId b) const = 0;

  /// Contiguous row of distances from \p a (indexable by SwitchId), or
  /// nullptr when this provider does not materialize rows. Hot loops use
  /// DistRow below, which falls back to at() per probe.
  virtual const std::uint8_t* row_ptr(SwitchId a) const = 0;

  /// Number of switches covered.
  virtual SwitchId num_switches() const = 0;

  /// True when every switch can reach every other over alive links.
  virtual bool connected() const = 0;

  /// Largest pairwise distance. Aborts (HXSP_CHECK) when the graph is
  /// disconnected — a diameter of "unreachable" is not a number, and
  /// multiplying the old 255 sentinel into TTL bounds was a silent bug.
  /// Callers that may be disconnected probe diameter_if_connected().
  virtual int diameter() const = 0;

  /// diameter(), or nullopt when the graph is disconnected.
  std::optional<int> diameter_if_connected() const {
    if (!connected()) return std::nullopt;
    return diameter();
  }

  /// Re-derives everything from the bound graph's current fault state
  /// (the paper's BFS-on-failure recovery path).
  virtual void rebuild() = 0;

  /// True when a path exists between \p a and \p b.
  bool reachable(SwitchId a, SwitchId b) const {
    return at(a, b) != kUnreachable;
  }
};

/// One anchored distance row, usable with any provider: wraps the dense
/// row pointer when the provider materializes rows (one byte load per
/// probe — the hot path Polarized relies on) and falls back to virtual
/// at() per probe otherwise. Distances are symmetric, so row[x] is both
/// d(anchor, x) and d(x, anchor).
class DistRow {
 public:
  DistRow(const DistanceProvider& d, SwitchId anchor)
      : row_(d.row_ptr(anchor)), d_(&d), anchor_(anchor) {}

  int operator[](SwitchId x) const {
    return row_ ? static_cast<int>(row_[static_cast<std::size_t>(x)])
                : d_->at(anchor_, x);
  }

 private:
  const std::uint8_t* row_;
  const DistanceProvider* d_;
  SwitchId anchor_;
};

/// Dense all-pairs distance table (uint8 entries, kUnreachable = no path).
/// Runs one BFS per switch over alive links: O(V * E) build, O(V^2) bytes.
class DistanceTable final : public DistanceProvider {
 public:
  DistanceTable() = default;

  /// Builds the table over \p g's alive links and binds \p g for
  /// rebuild(); \p g must outlive the table (or never be rebuilt).
  explicit DistanceTable(const Graph& g);

  int at(SwitchId a, SwitchId b) const override {
    return d_[static_cast<std::size_t>(a) * n_ + static_cast<std::size_t>(b)];
  }

  /// Row of distances from \p a (contiguous, indexable by SwitchId).
  const std::uint8_t* row_ptr(SwitchId a) const override {
    return &d_[static_cast<std::size_t>(a) * n_];
  }

  SwitchId num_switches() const override { return static_cast<SwitchId>(n_); }

  bool connected() const override { return connected_; }

  /// Largest finite distance; aborts (HXSP_CHECK) when disconnected.
  int diameter() const override;

  void rebuild() override;

  /// Mean distance over all ordered pairs *including* self-pairs, matching
  /// the convention of the paper's Table 3 (e.g. 2.625 for the 8x8x8).
  /// Returns -1 when the graph is disconnected.
  double average_distance() const;

  /// Eccentricity of a switch: max distance to any other switch. Aborts
  /// (HXSP_CHECK) when the graph is disconnected.
  int eccentricity(SwitchId s) const;

  /// eccentricity(), or nullopt when the graph is disconnected.
  std::optional<int> eccentricity_if_connected(SwitchId s) const {
    if (!connected_) return std::nullopt;
    return eccentricity(s);
  }

 private:
  const Graph* g_ = nullptr; ///< bound graph (rebuild source)
  std::size_t n_ = 0;
  std::vector<std::uint8_t> d_;
  bool connected_ = false;
  int diameter_ = 0; ///< largest finite distance (valid when connected_)
};

} // namespace hxsp
