#include "core/escape_updown.hpp"

#include <algorithm>
#include <deque>

namespace hxsp {
namespace {

/// Penalty of a red shortcut that cuts the escape distance by \p reduction.
int shortcut_penalty(const EscapePenalties& pen, int reduction) {
  return reduction >= 3 ? pen.red3 : (reduction == 2 ? pen.red2 : pen.red1);
}

} // namespace

EscapeUpDown::EscapeUpDown(const Graph& g, const Config& cfg)
    : g_(&g), cfg_(cfg), n_(static_cast<std::size_t>(g.num_switches())) {
  HXSP_CHECK(cfg.root >= 0 && cfg.root < g.num_switches());
  HXSP_CHECK_MSG(g.connected(),
                 "escape subnetwork requires a connected network");

  // Levels: BFS distance to the root over alive links.
  {
    const auto d = g.bfs(cfg_.root);
    level_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) level_[i] = d[i];
  }

  // Colouring: black iff the endpoints' levels differ (by exactly 1, since
  // both are BFS distances to the same root).
  black_.assign(static_cast<std::size_t>(g.num_links()), 0);
  for (LinkId l = 0; l < g.num_links(); ++l) {
    if (!g.link_alive(l)) continue;
    const auto& e = g.link(l);
    const int la = level_[static_cast<std::size_t>(e.a)];
    const int lb = level_[static_cast<std::size_t>(e.b)];
    if (la != lb) {
      black_[static_cast<std::size_t>(l)] = 1;
      ++num_black_;
    } else {
      ++num_red_;
    }
  }

  // Up-digraph distances: u_[x][z] = hops from x to z moving only along
  // black links towards the root (level strictly decreasing each step).
  u_.assign(n_ * n_, kUnreachable);
  std::deque<SwitchId> q;
  for (SwitchId x = 0; x < g.num_switches(); ++x) {
    std::uint8_t* row = &u_[static_cast<std::size_t>(x) * n_];
    row[static_cast<std::size_t>(x)] = 0;
    q.clear();
    q.push_back(x);
    while (!q.empty()) {
      const SwitchId c = q.front();
      q.pop_front();
      const std::uint8_t dc = row[static_cast<std::size_t>(c)];
      for (const auto& pi : g.ports(c)) {
        if (!g.link_alive(pi.link) || !black_[static_cast<std::size_t>(pi.link)])
          continue;
        if (level_[static_cast<std::size_t>(pi.neighbor)] !=
            level_[static_cast<std::size_t>(c)] - 1)
          continue; // only Up steps
        auto& dn = row[static_cast<std::size_t>(pi.neighbor)];
        if (dn == kUnreachable) {
          dn = static_cast<std::uint8_t>(dc + 1);
          q.push_back(pi.neighbor);
        }
      }
    }
  }

  // Up/Down distances: meet-in-the-middle over the up-digraph. The meet
  // point z is an up-ancestor of both endpoints; the down half is the
  // reverse of the target's up-subpath. O(n^3) with a tiny inner loop;
  // rebuilt only when the topology changes.
  ud_.assign(n_ * n_, kUnreachable);
  for (std::size_t a = 0; a < n_; ++a) {
    const std::uint8_t* ua = &u_[a * n_];
    for (std::size_t b = a; b < n_; ++b) {
      const std::uint8_t* ub = &u_[b * n_];
      // A kUnreachable term makes the sum at least kUnreachable, which
      // never beats the initial best, so the minimum needs no branch.
      int best = kUnreachable;
      for (std::size_t z = 0; z < n_; ++z)
        best = std::min(best, ua[z] + ub[z]);
      ud_[a * n_ + b] = static_cast<std::uint8_t>(best);
      ud_[b * n_ + a] = static_cast<std::uint8_t>(best);
    }
  }
}

void EscapeUpDown::candidates(SwitchId current, SwitchId target, bool gone_down,
                              std::vector<Candidate>& out) const {
  const auto uc = static_cast<std::size_t>(current);
  // ud_ is symmetric and u_'s target row is contiguous, so both per-
  // neighbour probes below walk the same two rows of bytes.
  const std::uint8_t* ud_row = &ud_[static_cast<std::size_t>(target) * n_];
  const std::uint8_t* ut_row = &u_[static_cast<std::size_t>(target) * n_];
  const std::uint8_t ud_c = ud_row[uc];
  // Down-phase potential: distance from target to current in the up
  // digraph; finite iff an all-Down path current -> target exists.
  const std::uint8_t ut_c = ut_row[uc];
  const int lvl_c = level_[uc];
  const EscapePenalties& pen = cfg_.penalties;

  for (const AlivePort& nb : g_->alive_ports(current)) {
    const Port p = nb.port;
    const auto un = static_cast<std::size_t>(nb.neighbor);
    const int lvl_n = level_[un];
    const bool black = black_[static_cast<std::size_t>(nb.link)] != 0;
    const std::uint8_t ud_n = ud_row[un];
    const std::uint8_t ut_n = ut_row[un];

    if (!cfg_.strict_phase) {
      // Paper rule: any link whose table entry shows a positive reduction
      // of the Up/Down distance is a legal candidate.
      if (ud_n >= ud_c) continue;
      if (black) {
        if (lvl_n < lvl_c) {
          out.push_back(Candidate::escape_hop(p, pen.up, false));
        } else {
          out.push_back(Candidate::escape_hop(p, pen.down, true));
        }
      } else if (cfg_.use_shortcuts) {
        const int pnl = shortcut_penalty(pen, ud_c - ud_n);
        out.push_back(Candidate::escape_hop(p, pnl, false));
      }
      continue;
    }

    // Strict phase mode: a legal escape route is
    //   (black Up | red towards lower id)*  (black Down | red towards higher id)*
    // which yields an acyclic channel dependency graph: links are ordered
    // Up before Down, as in classical up*/down* routing.
    if (!gone_down) {
      if (black && lvl_n < lvl_c && ud_n == ud_c - 1) {
        out.push_back(Candidate::escape_hop(p, pen.up, false));
      } else if (black && lvl_n > lvl_c && ut_n != kUnreachable &&
                 ut_c != kUnreachable && ut_n == ut_c - 1) {
        out.push_back(Candidate::escape_hop(p, pen.down, true));
      } else if (!black && cfg_.use_shortcuts && nb.neighbor < current &&
                 ud_n < ud_c) {
        const int pnl = shortcut_penalty(pen, ud_c - ud_n);
        out.push_back(Candidate::escape_hop(p, pnl, false));
      }
    } else {
      if (black && lvl_n > lvl_c && ut_n != kUnreachable &&
          ut_c != kUnreachable && ut_n == ut_c - 1) {
        out.push_back(Candidate::escape_hop(p, pen.down, true));
      } else if (!black && cfg_.use_shortcuts && nb.neighbor > current &&
                 ut_n != kUnreachable && ut_c != kUnreachable && ut_n < ut_c) {
        const int pnl = shortcut_penalty(pen, ut_c - ut_n);
        out.push_back(Candidate::escape_hop(p, pnl, false));
      }
    }
  }
}

} // namespace hxsp
