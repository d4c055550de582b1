// Liveness: the fault state of a simulated world, held once — which sites
// are down or paused, which links are cut, and when each site last crashed.
//
// Locus's lowest level maintains the virtual circuits and the site topology
// together (§7.1). Here mnet::Network owns the one table and reads it for
// every packet; the circuit layer, the engines and the invariant checker
// read it through a const view; mfault::FaultInjector is the only writer
// outside tests. Each write returns whether it changed anything. Sites are
// dense small integers, so the table is vectors indexed by SiteId, grown on
// write; a site the table has never seen (or a negative id) reads healthy.
#ifndef SRC_NET_LIVENESS_H_
#define SRC_NET_LIVENESS_H_

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/time.h"

namespace mnet {

class Liveness {
 public:
  static constexpr msim::Time kNeverCrashed = -1;

  bool SiteUp(SiteId s) const { return !Known(s) || !sites_[s].down; }
  bool Paused(SiteId s) const { return Known(s) && sites_[s].paused; }
  bool LinkUp(SiteId a, SiteId b) const {
    const auto [lo, hi] = std::minmax(a, b);
    return !Known(hi) || static_cast<std::size_t>(lo) >= sites_[hi].cut_below.size() ||
           !sites_[hi].cut_below[lo];
  }
  // Can a packet leaving `from` arrive at `to` right now?
  bool Reachable(SiteId from, SiteId to) const { return SiteUp(to) && LinkUp(from, to); }
  msim::Time CrashedAt(SiteId s) const { return Known(s) ? sites_[s].last_crash : kNeverCrashed; }
  // Did `s` crash at or after `t`? Stays true after `s` recovers: what `s`
  // received before its crash died with the old incarnation.
  bool CrashedSince(SiteId s, msim::Time t) const {
    return CrashedAt(s) != kNeverCrashed && CrashedAt(s) >= t;
  }

  // A crash stamps `now` and supersedes a pause.
  bool Crash(SiteId s, msim::Time now) {
    Site& st = At(s);
    if (!Set(st.down, true)) {
      return false;
    }
    st.paused = false;
    st.last_crash = now;
    return true;
  }
  bool Recover(SiteId s) { return Set(At(s).down, false); }
  // A down site cannot be paused.
  bool Pause(SiteId s) { return SiteUp(s) && Set(At(s).paused, true); }
  bool Resume(SiteId s) { return Set(At(s).paused, false); }
  // A cut or heal acts on both directions of the link.
  bool Cut(SiteId a, SiteId b) { return Set(Link(a, b), true); }
  bool Heal(SiteId a, SiteId b) { return Set(Link(a, b), false); }

 private:
  struct Site {
    bool down = false;
    bool paused = false;
    msim::Time last_crash = kNeverCrashed;
    std::vector<bool> cut_below;  // [lo]: the link to site lo <= this one is cut
  };

  bool Known(SiteId s) const { return static_cast<std::size_t>(s) < sites_.size(); }
  static std::size_t Index(SiteId s) {
    return s >= 0 ? static_cast<std::size_t>(s) : throw std::out_of_range("negative site id");
  }
  Site& At(SiteId s) {
    sites_.resize(std::max(sites_.size(), Index(s) + 1));
    return sites_[s];
  }
  std::vector<bool>::reference Link(SiteId a, SiteId b) {
    const auto [lo, hi] = std::minmax(a, b);
    std::vector<bool>& row = At(hi).cut_below;
    row.resize(std::max(row.size(), Index(lo) + 1));
    return row[lo];
  }
  static bool Set(auto&& bit, bool to) {
    const bool changed = bit != to;
    bit = to;
    return changed;
  }

  std::vector<Site> sites_;
};

}  // namespace mnet

#endif  // SRC_NET_LIVENESS_H_
