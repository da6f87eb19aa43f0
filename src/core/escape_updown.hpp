#pragma once
/// \file escape_updown.hpp
/// The opportunistic Up/Down escape subnetwork (paper §3.2) — one of the
/// paper's original contributions.
///
/// Construction: pick a root r and classify every alive link (x,y):
///   * black (Up/Down)  when d(x,r) != d(y,r)   — part of the "almost-tree"
///   * red  (horizontal) when d(x,r) == d(y,r)  — opportunistic shortcut
/// The Up/Down distance udist(x,y) is the length of the shortest path that
/// first ascends towards the root (every step one level closer) and then
/// descends (every step one level further). Red links are usable whenever
/// they *strictly reduce* udist to the destination, which restores most
/// minimal paths in a HyperX and keeps the root from congesting.
///
/// Implementation: with u_x(z) = distance from x to z in the "up" digraph
/// (black links oriented towards the root), udist(x,y) = min_z u_x(z)+u_y(z)
/// — an up-subpath from x and the reverse of an up-subpath from y meeting
/// at z. Both tables are rebuilt from a BFS whenever the fault set changes,
/// "which keeps cost in the order of using Minimal routing" (§3).
///
/// Deadlock freedom: with Config::strict_phase = false this class applies
/// the paper's memoryless table rule (any link with positive udist
/// reduction is legal); with strict_phase = true it additionally carries
/// the classical up*/down* phase bit and orients red links by switch id,
/// which yields a provably acyclic channel dependency graph. The harness
/// defaults to strict mode for that guarantee; bench/ablation_escape_mode.cpp
/// compares both rules (paper §3.2). Every simulation also runs a stall
/// watchdog.

#include <cstdint>
#include <vector>

#include "routing/mechanism.hpp" // Candidate
#include "topology/graph.hpp"
#include "util/fields.hpp"
#include "util/types.hpp"

namespace hxsp {

/// Escape-hop penalties in phits (paper §3.2). The defaults are the
/// paper's values; the ablation bench sweeps them.
struct EscapePenalties {
  int up = 112;    ///< black link towards the root
  int down = 96;   ///< black link away from the root
  int red1 = 80;   ///< shortcut reducing udist by 1
  int red2 = 64;   ///< shortcut reducing udist by 2
  int red3 = 48;   ///< shortcut reducing udist by >= 3
};

/// Field table: JSON keys, equality (util/fields.hpp).
inline const auto& field_table(const EscapePenalties*) {
  using S = EscapePenalties;
  static const auto table =
      std::make_tuple(field("up", &S::up), field("down", &S::down),
                      field("red1", &S::red1), field("red2", &S::red2),
                      field("red3", &S::red3));
  return table;
}

inline bool operator==(const EscapePenalties& a, const EscapePenalties& b) {
  return fields_equal(a, b);
}
inline bool operator!=(const EscapePenalties& a, const EscapePenalties& b) {
  return !(a == b);
}

/// The escape subnetwork: link colouring plus Up/Down distance tables.
class EscapeUpDown {
 public:
  struct Config {
    SwitchId root = 0;        ///< root switch of the almost-tree
    bool strict_phase = false;///< provably deadlock-free variant
    EscapePenalties penalties;
    bool use_shortcuts = true;///< false = pure Up*/Down* (ablation)
  };

  /// Builds the subnetwork over the alive links of \p g.
  /// Requires \p g to be connected (checked).
  EscapeUpDown(const Graph& g, const Config& cfg);

  /// BFS level of a switch (distance to the root).
  int level(SwitchId s) const { return level_[static_cast<std::size_t>(s)]; }

  /// True when link \p l is black (endpoints on different levels).
  bool is_black(LinkId l) const { return black_[static_cast<std::size_t>(l)] != 0; }

  /// Up-digraph distance from \p from to \p to (kUnreachable if none).
  std::uint8_t up_distance(SwitchId from, SwitchId to) const {
    return u_[static_cast<std::size_t>(from) * n_ + static_cast<std::size_t>(to)];
  }

  /// The Up/Down distance between two switches.
  std::uint8_t updown_distance(SwitchId a, SwitchId b) const {
    return ud_[static_cast<std::size_t>(a) * n_ + static_cast<std::size_t>(b)];
  }

  /// Appends one Candidate::escape_hop entry per legal escape hop for a
  /// packet at \p current headed to \p target, its VC range left to the
  /// caller. \p gone_down is the packet's strict-phase bit (ignored in the
  /// memoryless mode, Config::strict_phase = false).
  void candidates(SwitchId current, SwitchId target, bool gone_down,
                  std::vector<Candidate>& out) const;

  /// The configured root.
  SwitchId root() const { return cfg_.root; }

  /// The configuration in force.
  const Config& config() const { return cfg_; }

  /// Number of black / red alive links (diagnostics and tests).
  int num_black_links() const { return num_black_; }
  int num_red_links() const { return num_red_; }

 private:
  const Graph* g_; ///< pointer (not reference) so tables can be rebuilt
                   ///< in place when the fault set changes at runtime
  Config cfg_;
  std::size_t n_ = 0;
  std::vector<int> level_;
  std::vector<char> black_;
  std::vector<std::uint8_t> u_;  ///< up-digraph distances, n x n
  std::vector<std::uint8_t> ud_; ///< up/down distances, n x n
  int num_black_ = 0;
  int num_red_ = 0;
};

} // namespace hxsp
