#include "topology/hyperx.hpp"

#include <cstddef>

namespace hxsp {

namespace {
SwitchId product(const std::vector<int>& sides) {
  long long p = 1;
  for (int k : sides) {
    HXSP_CHECK_MSG(k >= 2, "HyperX sides must be >= 2");
    p *= k;
    HXSP_CHECK_MSG(p <= (1 << 22), "HyperX too large for this simulator");
  }
  return static_cast<SwitchId>(p);
}

/// The switch graph of a HyperX with \p sides. Edges are listed slot by
/// slot: dimension d, then neighbour index idx within d's port block, then
/// switch id s, each link from its lower endpoint. Switch s (coordinate
/// c = c_d(s)) reaches at index idx the switch whose d-coordinate is idx
/// (idx < c) or idx + 1 (idx >= c), so s is the lower endpoint exactly
/// when c <= idx, and the neighbour is t = s + (idx + 1 - c) * stride_d.
/// Every switch meets its lower neighbours in ascending id order in the
/// single slot base_d + c - 1, and its upper neighbours in later slots,
/// so insertion order is canonical port order at both ends (the Debug
/// sweep in the constructor re-checks it).
Graph hyperx_graph(const std::vector<int>& sides) {
  const SwitchId n = product(sides);
  std::size_t num_links = 0;
  for (int k : sides)
    num_links += static_cast<std::size_t>(n) * static_cast<std::size_t>(k - 1) / 2;
  std::vector<Graph::Edge> edges;
  edges.reserve(num_links);
  SwitchId stride = 1;
  for (int k : sides) {
    const SwitchId block = stride * k;
    for (int idx = 0; idx + 1 < k; ++idx)
      for (SwitchId hi = 0; hi < n; hi += block)  // coordinates above d
        for (int c = 0; c <= idx; ++c) {
          const SwitchId first = hi + c * stride;
          const SwitchId step = (idx + 1 - c) * stride;
          for (SwitchId s = first; s < first + stride; ++s)  // coordinates below d
            edges.push_back({s, s + step});
        }
    stride = block;
  }
  return Graph(n, edges);
}
} // namespace

HyperX::HyperX(std::vector<int> sides, int servers_per_switch)
    : sides_(std::move(sides)),
      servers_per_switch_(servers_per_switch),
      graph_(hyperx_graph(sides_)) {
  HXSP_CHECK(servers_per_switch_ >= 1);
  const SwitchId n = graph_.num_switches();
  const std::size_t dims = sides_.size();

  // Decode coordinates by odometer (dimension 0 is the fastest digit).
  coords_.reserve(static_cast<std::size_t>(n) * dims);
  std::vector<int> c(dims, 0);
  for (SwitchId s = 0; s < n; ++s) {
    coords_.insert(coords_.end(), c.begin(), c.end());
    for (std::size_t i = 0; i < dims; ++i) {
      if (++c[i] < sides_[i]) break;
      c[i] = 0;
    }
  }

  // Port layout: dimension blocks in ascending order; within a block the
  // neighbours appear by ascending coordinate (own coordinate skipped).
  dim_port_base_.resize(dims + 1);
  dim_port_base_[0] = 0;
  for (std::size_t i = 0; i < dims; ++i)
    dim_port_base_[i + 1] = dim_port_base_[i] + (sides_[i] - 1);

#ifndef NDEBUG
  // Verify canonical port numbering end-to-end.
  for (SwitchId s = 0; s < n; ++s) {
    HXSP_DCHECK(switch_at(coords(s)) == s);
    for (std::size_t i = 0; i < dims; ++i) {
      for (int a = 0; a < sides_[i]; ++a) {
        if (a == coord(s, static_cast<int>(i))) continue;
        Port p = port_towards(s, static_cast<int>(i), a);
        std::vector<int> nc = coords(s);
        nc[i] = a;
        HXSP_DCHECK(graph_.port(s, p).neighbor == switch_at(nc));
      }
    }
  }
#endif
}

HyperX HyperX::regular(int dims, int side, int servers_per_switch) {
  if (servers_per_switch < 0) servers_per_switch = side;
  return HyperX(std::vector<int>(static_cast<std::size_t>(dims), side),
                servers_per_switch);
}

int HyperX::radix() const {
  int r = servers_per_switch_;
  for (int k : sides_) r += k - 1;
  return r;
}

SwitchId HyperX::switch_at(const std::vector<int>& coords) const {
  HXSP_DCHECK(coords.size() == sides_.size());
  SwitchId id = 0;
  for (std::size_t i = sides_.size(); i-- > 0;) {
    HXSP_DCHECK(coords[i] >= 0 && coords[i] < sides_[i]);
    id = id * sides_[i] + coords[i];
  }
  return id;
}

Port HyperX::port_towards(SwitchId s, int dim, int target_coord) const {
  const int own = coord(s, dim);
  HXSP_DCHECK(target_coord != own && target_coord >= 0 &&
              target_coord < side(dim));
  const int idx = target_coord < own ? target_coord : target_coord - 1;
  return static_cast<Port>(dim_port_base_[static_cast<std::size_t>(dim)] + idx);
}

int HyperX::port_dim(SwitchId /*s*/, Port p) const {
  HXSP_DCHECK(p >= 0 && p < dim_port_base_.back());
  int dim = 0;
  while (p >= dim_port_base_[static_cast<std::size_t>(dim) + 1]) ++dim;
  return dim;
}

int HyperX::hamming_distance(SwitchId a, SwitchId b) const {
  const int* ca = coord_row(a);
  const int* cb = coord_row(b);
  int d = 0;
  for (int i = 0; i < dims(); ++i) d += ca[i] != cb[i];
  return d;
}

std::string HyperX::describe() const {
  std::string s = "HyperX ";
  for (std::size_t i = 0; i < sides_.size(); ++i) {
    if (i) s += "x";
    s += std::to_string(sides_[i]);
  }
  s += ", " + std::to_string(servers_per_switch_) + " servers/switch";
  return s;
}

} // namespace hxsp
