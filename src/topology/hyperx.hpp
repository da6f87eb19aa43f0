#pragma once
/// \file hyperx.hpp
/// The HyperX topology (Hamming graph): the Cartesian product of Complete
/// graphs K_{k_1} x ... x K_{k_n} (paper §2).
///
/// A switch is labelled by its coordinate vector (x_1,...,x_n); two switches
/// are linked iff their Hamming distance is 1, i.e. they differ in exactly
/// one coordinate. Each switch additionally attaches `servers_per_switch`
/// servers. Port numbering is canonical: for dimension i the ports appear
/// in ascending order of the neighbour's coordinate in that dimension
/// (skipping the switch's own coordinate), dimensions in ascending order.
///
/// The graph is built from one ordered edge list, and that order defines
/// the port numbers and link ids (see graph.hpp): dimension, then
/// neighbour index within the dimension's port block, then switch id, each
/// link listed once from its lower endpoint. Link ids therefore name the
/// same links in every build, and fault sets stay reproducible.

#include <string>
#include <vector>

#include "topology/graph.hpp"
#include "util/types.hpp"

namespace hxsp {

/// HyperX topology descriptor plus the constructed switch graph.
class HyperX {
 public:
  /// Builds a HyperX with per-dimension sides \p sides (all >= 2) and
  /// \p servers_per_switch servers attached to every switch.
  HyperX(std::vector<int> sides, int servers_per_switch);

  /// Convenience constructor for the common regular case: n dimensions of
  /// side k, with k^(n) switches. If \p servers_per_switch is negative the
  /// paper's convention (k servers per switch) is used.
  static HyperX regular(int dims, int side, int servers_per_switch = -1);

  /// The underlying switch graph (mutable so faults can be injected).
  Graph& graph() { return graph_; }
  const Graph& graph() const { return graph_; }

  /// Number of dimensions n.
  int dims() const { return static_cast<int>(sides_.size()); }

  /// Side of dimension \p i (number of coordinates).
  int side(int i) const { return sides_[static_cast<std::size_t>(i)]; }

  /// All sides.
  const std::vector<int>& sides() const { return sides_; }

  /// Number of switches = prod(sides).
  SwitchId num_switches() const { return graph_.num_switches(); }

  /// Servers attached to each switch.
  int servers_per_switch() const { return servers_per_switch_; }

  /// Total number of servers.
  ServerId num_servers() const {
    return static_cast<ServerId>(num_switches()) * servers_per_switch_;
  }

  /// Switch radix: switch-to-switch ports plus server ports.
  int radix() const;

  /// Coordinates of switch \p s (row-major decoding, dimension 0 fastest).
  std::vector<int> coords(SwitchId s) const {
    const int* c = coord_row(s);
    return std::vector<int>(c, c + dims());
  }

  /// Switch id for a coordinate vector.
  SwitchId switch_at(const std::vector<int>& coords) const;

  /// Coordinate of switch \p s in dimension \p dim (O(1)).
  int coord(SwitchId s, int dim) const { return coord_row(s)[dim]; }

  /// Port on switch \p s leading to the neighbour whose coordinate in
  /// dimension \p dim equals \p target_coord (which must differ from s's).
  Port port_towards(SwitchId s, int dim, int target_coord) const;

  /// Dimension along which the link behind (switch, port) travels.
  int port_dim(SwitchId s, Port p) const;

  /// Hamming distance between switches (== graph distance when fault-free).
  int hamming_distance(SwitchId a, SwitchId b) const;

  /// Switch hosting server \p v.
  SwitchId server_switch(ServerId v) const {
    return static_cast<SwitchId>(v / servers_per_switch_);
  }

  /// Local index of server \p v at its switch, in [0, servers_per_switch).
  int server_local(ServerId v) const {
    return static_cast<int>(v % servers_per_switch_);
  }

  /// Server id for (switch, local index).
  ServerId server_at(SwitchId s, int local) const {
    return static_cast<ServerId>(s) * servers_per_switch_ + local;
  }

  /// Human-readable description, e.g. "HyperX 8x8x8, 8 servers/switch".
  std::string describe() const;

 private:
  /// Switch \p s's dims() coordinates in coords_.
  const int* coord_row(SwitchId s) const {
    return coords_.data() + static_cast<std::size_t>(s) * sides_.size();
  }

  std::vector<int> sides_;
  int servers_per_switch_;
  Graph graph_;
  std::vector<int> coords_; ///< [switch][dim], flat
  std::vector<int> dim_port_base_; ///< first port of each dimension block
};

} // namespace hxsp
