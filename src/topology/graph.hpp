#pragma once
/// \file graph.hpp
/// Undirected switch-level graph with stable port numbering and per-link
/// fault state.
///
/// This is the substrate every routing algorithm operates on. A graph is
/// built once from an ordered edge list, and the order of that list
/// defines its numbering: edge i is link i, and each switch numbers its
/// ports in the order its edges appear. Ports are never renumbered, so
/// disabling a link (a fault) leaves the surviving port map intact —
/// exactly how a physical switch behaves when a cable dies.
///
/// Storage is flat (compressed sparse rows): switch s owns the slots
/// [offset(s), offset(s+1)) of one port array, and the same slots of an
/// alive-port array whose first alive_degree(s) entries are its live ports.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/span.hpp"
#include "util/types.hpp"

namespace hxsp {

/// One endpoint's view of an incident link.
struct PortInfo {
  SwitchId neighbor = kInvalid; ///< Switch at the other end.
  Port remote_port = kInvalid;  ///< Port number at the other end.
  LinkId link = kInvalid;       ///< Global undirected link id.
};

/// Compact entry of the per-switch alive-port view (see
/// Graph::alive_ports): only the fields routing hot loops read, with dead
/// links already filtered out.
struct AlivePort {
  Port port;         ///< local port number
  SwitchId neighbor; ///< switch at the other end
  LinkId link;       ///< global link id (escape colouring lookups)
};

/// Undirected multigraph over switches, with O(1) port lookup and
/// link-level fault toggling.
class Graph {
 public:
  /// An undirected edge (a, b); its position in the list is its LinkId.
  using Edge = std::pair<SwitchId, SwitchId>;

  /// Builds the graph over \p num_switches switches with one link per
  /// entry of \p edges, all alive. Link ids follow edge order, and each
  /// switch numbers its ports in the order its edges appear.
  Graph(SwitchId num_switches, const std::vector<Edge>& edges);

  /// Number of switches.
  SwitchId num_switches() const {
    return static_cast<SwitchId>(offsets_.size() - 1);
  }

  /// Number of links (alive or faulty).
  LinkId num_links() const { return static_cast<LinkId>(links_.size()); }

  /// Number of currently alive links.
  LinkId num_alive_links() const { return alive_links_; }

  /// Degree of switch \p s = number of ports (including dead ones).
  Port degree(SwitchId s) const {
    return static_cast<Port>(offset(s + 1) - offset(s));
  }

  /// Port table for switch \p s (indexed by local port number).
  ConstSpan<PortInfo> ports(SwitchId s) const {
    return {ports_.data() + offset(s), ports_.data() + offset(s + 1)};
  }

  /// Alive ports of switch \p s in ascending port order — the candidate
  /// loops' view of the topology. Walking this instead of ports() skips
  /// dead links without a per-port link_alive() indirection; fail_link and
  /// restore_link keep it in sync.
  ConstSpan<AlivePort> alive_ports(SwitchId s) const {
    const AlivePort* first = alive_.data() + offset(s);
    return {first, first + alive_degree(s)};
  }

  /// Endpoint info of the link behind (switch, port).
  const PortInfo& port(SwitchId s, Port p) const {
    HXSP_DCHECK(p >= 0 && p < degree(s));
    return ports_[offset(s) + static_cast<std::size_t>(p)];
  }

  /// True when the link behind (switch, port) is alive.
  bool port_alive(SwitchId s, Port p) const {
    return link_alive_[static_cast<std::size_t>(port(s, p).link)];
  }

  /// True when link \p l is alive.
  bool link_alive(LinkId l) const { return link_alive_[static_cast<std::size_t>(l)]; }

  /// The two endpoints of link \p l as (switch, port) pairs.
  struct LinkEnds {
    SwitchId a, b;
    Port port_a, port_b;
  };
  const LinkEnds& link(LinkId l) const { return links_[static_cast<std::size_t>(l)]; }

  /// Marks link \p l faulty. Idempotent.
  void fail_link(LinkId l);

  /// Restores link \p l. Idempotent.
  void restore_link(LinkId l);

  /// Restores every link.
  void restore_all();

  /// Alive-degree of switch \p s (ports whose links are up).
  Port alive_degree(SwitchId s) const {
    return alive_degree_[static_cast<std::size_t>(s)];
  }

  /// Single-source BFS over alive links; returns distances with
  /// kUnreachable for switches in other components.
  std::vector<std::uint8_t> bfs(SwitchId source) const;

  /// True when every switch can reach every other over alive links.
  bool connected() const;

  /// Number of connected components over alive links.
  int num_components() const;

 private:
  /// First slot of switch \p s in ports_ and alive_.
  std::size_t offset(SwitchId s) const { return offsets_[static_cast<std::size_t>(s)]; }

  /// Refills switch \p s's alive region from its ports, in port order.
  void compact_alive(SwitchId s);

  /// Flips link \p l's state and recompacts both endpoints.
  void set_link_alive(LinkId l, bool alive);

  std::vector<std::size_t> offsets_; ///< num_switches + 1 slot offsets
  std::vector<PortInfo> ports_;      ///< every port, switch-major
  std::vector<AlivePort> alive_;     ///< live ports first in each region
  std::vector<Port> alive_degree_;   ///< live prefix length per switch
  std::vector<LinkEnds> links_;
  std::vector<char> link_alive_; ///< char (not bool) for data-race-free simplicity
  LinkId alive_links_ = 0;
};

} // namespace hxsp
