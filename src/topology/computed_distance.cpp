#include "topology/computed_distance.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hxsp {

ComputedHyperXDistance::ComputedHyperXDistance(const HyperX& hx) : hx_(&hx) {
  stride_.resize(static_cast<std::size_t>(hx.dims()));
  std::int64_t s = 1;
  for (int d = 0; d < hx.dims(); ++d) {
    stride_[static_cast<std::size_t>(d)] = s;
    s *= hx.side(d);
  }
  rebuild();
}

void ComputedHyperXDistance::rebuild() {
  const Graph& g = hx_->graph();
  num_dead_ = 0;
  dirty_.assign(static_cast<std::size_t>(g.num_switches()), 0);
  for (LinkId l = 0; l < g.num_links(); ++l) {
    if (g.link_alive(l)) continue;
    ++num_dead_;
    const auto ends = g.link(l);
    dirty_[static_cast<std::size_t>(ends.a)] = 1;
    dirty_[static_cast<std::size_t>(ends.b)] = 1;
  }
  // A healthy HyperX is connected by construction; only scan when faulted.
  connected_ = num_dead_ == 0 || g.connected();
  faulted_diameter_ = -1;
}

int ComputedHyperXDistance::at(SwitchId a, SwitchId b) const {
  if (a == b) return 0;
  if (num_dead_ == 0 || minimal_path_intact(a, b))
    return hx_->hamming_distance(a, b);
  ++rows_built_;
  return hx_->graph().bfs(a)[static_cast<std::size_t>(b)];
}

bool ComputedHyperXDistance::minimal_path_intact(SwitchId a, SwitchId b) const {
  const int dims = hx_->dims();
  // Differing dimensions: id delta toward b, the dimension index, and b's
  // coordinate there (the port_towards target).
  std::int64_t delta[kMaxDpDims];
  int dim_of[kMaxDpDims];
  int target[kMaxDpDims];
  int h = 0;
  for (int d = 0; d < dims; ++d) {
    const int ca = hx_->coord(a, d);
    const int cb = hx_->coord(b, d);
    if (ca == cb) continue;
    if (h >= kMaxDpDims) return false; // too wide to enumerate; let BFS decide
    delta[h] = static_cast<std::int64_t>(cb - ca) *
               stride_[static_cast<std::size_t>(d)];
    dim_of[h] = d;
    target[h] = cb;
    ++h;
  }
  // Every minimal path visits only corners of the (a, b) subcube, fixing
  // one differing dimension per hop; a corner is the set of dimensions
  // already fixed. reach[mask] = "corner `mask` reachable from a over
  // alive links". Masks ascend, so every predecessor (one bit fewer) is
  // final before it is read. A dead link dirties both of its ends, so a
  // hop with a clean end is alive and only dirty-to-dirty hops are probed.
  bool reach[std::size_t{1} << kMaxDpDims];
  bool dirty[std::size_t{1} << kMaxDpDims]; ///< corner `mask` is dirty
  reach[0] = true;
  dirty[0] = dirty_[static_cast<std::size_t>(a)] != 0;
  const std::uint32_t full = (std::uint32_t{1} << h) - 1;
  const Graph& g = hx_->graph();
  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    std::int64_t id = a;
    for (int i = 0; i < h; ++i)
      if (mask & (std::uint32_t{1} << i)) id += delta[i];
    dirty[mask] = dirty_[static_cast<std::size_t>(id)] != 0;
    bool r = false;
    for (int i = 0; i < h && !r; ++i) {
      const std::uint32_t bit = std::uint32_t{1} << i;
      if (!(mask & bit) || !reach[mask ^ bit]) continue;
      const SwitchId prev = static_cast<SwitchId>(id - delta[i]);
      r = !dirty[mask] || !dirty[mask ^ bit] ||
          g.port_alive(prev, hx_->port_towards(prev, dim_of[i], target[i]));
    }
    reach[mask] = r;
  }
  return reach[full];
}

int ComputedHyperXDistance::diameter() const {
  HXSP_CHECK_MSG(connected_,
                 "diameter() on a disconnected graph; probe "
                 "diameter_if_connected() instead");
  if (num_dead_ == 0) return hx_->dims(); // all sides >= 2 by construction
  if (faulted_diameter_ < 0) {
    int diam = 0;
    for (SwitchId s = 0; s < hx_->num_switches(); ++s) {
      const auto row = hx_->graph().bfs(s);
      for (const std::uint8_t v : row) diam = std::max(diam, static_cast<int>(v));
    }
    faulted_diameter_ = diam;
  }
  return faulted_diameter_;
}

int ComputedHyperXDistance::num_dirty_switches() const {
  return static_cast<int>(std::count(dirty_.begin(), dirty_.end(), 1));
}

std::unique_ptr<DistanceProvider> make_distance_provider(const HyperX& hx) {
  if (hx.num_switches() <= kDenseDistanceSwitchLimit)
    return std::make_unique<DistanceTable>(hx.graph());
  return std::make_unique<ComputedHyperXDistance>(hx);
}

} // namespace hxsp
