/// \file patterns.cpp
/// Implementations of every synthetic traffic pattern in the paper plus a
/// few classic extras used by the extension benches.

#include "traffic/pattern.hpp"

namespace hxsp {

namespace {

/// The uniform draw over every server but \p src, shared by Uniform and
/// Hotspot's uniform share.
ServerId uniform_other(ServerId n, ServerId src, Rng& rng) {
  const ServerId d =
      static_cast<ServerId>(rng.next_below(static_cast<std::uint64_t>(n - 1)));
  return d >= src ? d + 1 : d; // skip self
}

/// Uniform: each message goes to a random server other than the source.
/// "A classical benign pattern that may roughly represent general
/// unstructured real traffic" (§4).
class Uniform final : public TrafficPattern {
 public:
  explicit Uniform(ServerId n) : n_(n) {}
  ServerId destination(ServerId src, Rng& rng) const override {
    return uniform_other(n_, src, rng);
  }

 private:
  ServerId n_;
};

/// Hotspot: a fraction of messages target a small fixed set of hot
/// servers (spread evenly over the id space), the rest go uniform.
/// NOT admissible — used by extension benches to study congestion trees.
/// Fraction and spot count come from TrafficParams; the defaults (10%,
/// one spot at num_servers/2) reproduce the original hard-coded pattern
/// draw for draw.
class Hotspot final : public TrafficPattern {
 public:
  Hotspot(ServerId n, const TrafficParams& params)
      : n_(n), frac_(params.hotspot_fraction) {
    HXSP_CHECK_MSG(params.hotspot_count >= 1 && params.hotspot_count < n,
                   "hotspot_count must be in [1, num_servers)");
    HXSP_CHECK_MSG(frac_ >= 0.0 && frac_ <= 1.0,
                   "hotspot_fraction must be in [0, 1]");
    for (int k = 0; k < params.hotspot_count; ++k)
      spots_.push_back(static_cast<ServerId>(
          static_cast<std::int64_t>(k + 1) * n / (params.hotspot_count + 1)));
  }
  ServerId destination(ServerId src, Rng& rng) const override {
    if (spots_.size() == 1) {
      // Single-spot fast path: identical RNG draw order to the original
      // hard-coded pattern (the hot server itself skips the Bernoulli).
      if (src != spots_[0] && rng.next_bool(frac_)) return spots_[0];
    } else if (rng.next_bool(frac_)) {
      const ServerId s = spots_[static_cast<std::size_t>(
          rng.next_below(spots_.size()))];
      if (s != src) return s;
      // A hot server aiming at itself falls through to uniform.
    }
    return uniform_other(n_, src, rng);
  }

 private:
  ServerId n_;
  double frac_;
  std::vector<ServerId> spots_;
};

/// Every fixed pattern: its destination table, filled once by
/// make_traffic, so a generated packet costs one load.
class Permutation final : public TrafficPattern {
 public:
  explicit Permutation(std::vector<ServerId> dst) : dst_(std::move(dst)) {
    std::vector<bool> hit(dst_.size(), false);
    for (const ServerId d : dst_) {
      HXSP_CHECK_MSG(d >= 0 && static_cast<std::size_t>(d) < dst_.size() &&
                         !hit[static_cast<std::size_t>(d)],
                     "traffic pattern is not a permutation of the servers");
      hit[static_cast<std::size_t>(d)] = true;
    }
  }
  ServerId destination(ServerId src, Rng&) const override {
    return dst_[static_cast<std::size_t>(src)];
  }

 private:
  std::vector<ServerId> dst_;
};

/// The permutation sending server s to \p f(s).
template <typename F>
std::unique_ptr<TrafficPattern> tabulate(ServerId n, const F& f) {
  std::vector<ServerId> dst(static_cast<std::size_t>(n));
  for (ServerId s = 0; s < n; ++s) dst[static_cast<std::size_t>(s)] = f(s);
  return std::make_unique<Permutation>(std::move(dst));
}

/// The permutation sending every server to the same local server at the
/// switch whose coordinates are \p f(coordinates of its own switch).
template <typename F>
std::unique_ptr<TrafficPattern> map_switches(const HyperX& hx, const F& f) {
  return tabulate(hx.num_servers(), [&](ServerId s) {
    const SwitchId d = hx.switch_at(f(hx.coords(hx.server_switch(s))));
    return hx.server_at(d, hx.server_local(s));
  });
}

/// Regular Permutation to Neighbour (the paper's new pattern, §4).
///
/// The HyperX K_k^n (k even) is tiled by (k/2)^n K_2^n hypercubes; inside
/// each, switches follow a directed Hamiltonian (Gray-code) cycle and every
/// server sends to the same local server at the next switch of the cycle.
/// Every K_k row then carries either 0 or k/2 confined source/destination
/// pairs, bounding aligned-route throughput by 0.5 while 3-hop unaligned
/// routes (which Polarized finds) lift it above that.
std::unique_ptr<TrafficPattern> make_rpn(const HyperX& hx) {
  const int n = hx.dims();
  for (int i = 0; i < n; ++i)
    HXSP_CHECK_MSG(hx.side(i) % 2 == 0, "rpn needs even sides");
  // Reflected Gray code over n bits forms the Hamiltonian cycle
  // (consecutive codes differ in one bit; last and first also do).
  const int cube = 1 << n;
  std::vector<int> gray(static_cast<std::size_t>(cube)); // position -> code
  std::vector<int> pos(static_cast<std::size_t>(cube));  // code -> position
  for (int i = 0; i < cube; ++i) {
    gray[static_cast<std::size_t>(i)] = i ^ (i >> 1);
    pos[static_cast<std::size_t>(gray[static_cast<std::size_t>(i)])] = i;
  }
  return map_switches(hx, [&](std::vector<int> c) {
    // Offset bits inside the K_2^n hypercube, then the next corner of the
    // cycle from the hypercube's base corner.
    int bits = 0;
    for (int i = 0; i < n; ++i)
      bits |= (c[static_cast<std::size_t>(i)] & 1) << i;
    const int next = gray[static_cast<std::size_t>(
        (pos[static_cast<std::size_t>(bits)] + 1) % cube)];
    for (int i = 0; i < n; ++i) {
      int& x = c[static_cast<std::size_t>(i)];
      x = (x & ~1) + ((next >> i) & 1);
    }
    return c;
  });
}

} // namespace

std::unique_ptr<TrafficPattern> make_uniform_traffic(ServerId num_servers) {
  return std::make_unique<Uniform>(num_servers);
}

std::unique_ptr<TrafficPattern> make_traffic(const std::string& name,
                                             const HyperX& hx, Rng& rng,
                                             const TrafficParams& params) {
  const ServerId n = hx.num_servers();
  if (name == "uniform") return make_uniform_traffic(n);
  if (name == "hotspot") return std::make_unique<Hotspot>(n, params);
  // Random Server Permutation: "every server pulls a large file from
  // another server" (§4).
  if (name == "rsp") return std::make_unique<Permutation>(rng.permutation(n));
  if (name == "dcr" && hx.dims() == 3) {
    // Dimension Complement Reverse, 3D (from [24]): servers at switch
    // (x,y,z) send to the same local server at switch (~z,~y,~x), where
    // ~x = k-1-x. Valiant is throughput-optimal here.
    for (int i = 0; i < 3; ++i)
      HXSP_CHECK_MSG(hx.side(i) == hx.side(0), "dcr needs equal sides");
    const int k = hx.side(0);
    return map_switches(hx, [k](const std::vector<int>& c) {
      return std::vector<int>{k - 1 - c[2], k - 1 - c[1], k - 1 - c[0]};
    });
  }
  if (name == "dcr") {
    // Dimension Complement Reverse, 2D (§4): treating the local server
    // coordinate w as a third dimension, server (w,x,y) sends to server
    // (~y,~x,~w): destination switch (~x,~w), local index ~y.
    HXSP_CHECK_MSG(hx.dims() == 2, "dcr2d needs a 2D HyperX");
    HXSP_CHECK_MSG(hx.side(0) == hx.side(1), "dcr needs equal sides");
    HXSP_CHECK_MSG(hx.servers_per_switch() == hx.side(0),
                   "dcr2d needs servers_per_switch == side");
    const int k = hx.side(0);
    return tabulate(n, [&hx, k](ServerId s) {
      const SwitchId sw = hx.server_switch(s);
      const int w = hx.server_local(s);
      const SwitchId d =
          hx.switch_at({k - 1 - hx.coord(sw, 0), k - 1 - w});
      return hx.server_at(d, k - 1 - hx.coord(sw, 1));
    });
  }
  if (name == "rpn") return make_rpn(hx);
  if (name == "transpose") {
    // Switch (x,y) -> (y,x), same local server.
    HXSP_CHECK_MSG(hx.dims() == 2 && hx.side(0) == hx.side(1),
                   "transpose needs a square 2D HyperX");
    return map_switches(hx, [](const std::vector<int>& c) {
      return std::vector<int>{c[1], c[0]};
    });
  }
  if (name == "complement") {
    // Every coordinate complemented, same local server.
    return map_switches(hx, [&hx](std::vector<int> c) {
      for (int i = 0; i < hx.dims(); ++i)
        c[static_cast<std::size_t>(i)] =
            hx.side(i) - 1 - c[static_cast<std::size_t>(i)];
      return c;
    });
  }
  // Half shift: destination = (src + num_servers/2) mod num_servers.
  if (name == "shift")
    return tabulate(n, [n](ServerId s) {
      return static_cast<ServerId>((s + n / 2) % n);
    });
  HXSP_CHECK_MSG(false, ("unknown traffic pattern: " + name).c_str());
  return nullptr;
}

std::vector<std::string> traffic_names() {
  return {"uniform", "rsp", "dcr", "rpn", "transpose", "complement", "shift", "hotspot"};
}

} // namespace hxsp
