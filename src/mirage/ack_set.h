// AckSet: the acks one protocol wait still expects — install acks after a
// Table-1 transition, invalidate acks before a write grant (§6.1), a write
// quorum of standby acks, or recovery replies. It counts owed acks per site,
// applies a completion rule and a kind of forgiveness, and carries the
// wait's incarnation fence, deadline and re-examination period. It holds no
// simulator state; Engine::AwaitAcks is the one loop that sleeps on it.
#ifndef SRC_MIRAGE_ACK_SET_H_
#define SRC_MIRAGE_ACK_SET_H_

#include <array>
#include <cstdint>

#include "src/mem/page.h"
#include "src/net/liveness.h"
#include "src/net/packet.h"
#include "src/sim/time.h"

namespace mirage {

class AckSet {
 public:
  enum class Rule : std::uint8_t {
    kAll,       // done when nothing is owed
    kMajority,  // done at ceil((k_eff + 1) / 2) acks, at least one, where
                // k_eff = received + still owed; failed once nothing is owed
  };
  enum class Forgiveness : std::uint8_t {
    kCount,   // a gone site's acks count as delivered: its copy died with it
    kShrink,  // a gone site leaves the set: what it held died with it
  };
  enum class State : std::uint8_t { kPending, kComplete, kFailed };

  // `deadline` 0 = none; `period` <= 0 = re-examine only when woken.
  AckSet(Rule rule, Forgiveness forgiveness, msim::Time created_at, msim::Time deadline,
         msim::Duration period)
      : rule_(rule),
        forgiveness_(forgiveness),
        created_at_(created_at),
        deadline_(deadline),
        period_(period) {}

  // `s` owes `n` more acks.
  void Owe(mnet::SiteId s, int n = 1) {
    owed_[s] += n;
    owing_ |= mmem::MaskOf(s);
    owed_total_ += n;
  }
  // Forgive never touches the acks `s` owes; the waiter decides what its
  // death means.
  void Pin(mnet::SiteId s) { pinned_ |= mmem::MaskOf(s); }

  // One ack from `s`. An ack `s` does not owe (a duplicate, or one from a
  // site already forgiven) changes nothing and returns false.
  bool Credit(mnet::SiteId s) {
    if (s < 0 || s >= mmem::kMaxSites || owed_[s] == 0) {
      return false;
    }
    if (--owed_[s] == 0) {
      owing_ &= ~mmem::MaskOf(s);
    }
    --owed_total_;
    ++got_;
    return true;
  }

  // Forgives every ack owed by an unpinned site in `gone`; returns how many.
  int Forgive(const mmem::SiteMask& gone) {
    const mmem::SiteMask forgiven = gone & owing_ & ~pinned_;
    int n = 0;
    mmem::ForEachSite(forgiven, [&](mnet::SiteId s) {
      n += owed_[s];
      owed_[s] = 0;
    });
    owing_ &= ~forgiven;
    owed_total_ -= n;
    if (forgiveness_ == Forgiveness::kCount) {
      got_ += n;
    }
    return n;
  }

  // The incarnation fence: `s` can no longer deliver an ack owed to this set
  // if it is down, or crashed at or after `created_at` — even if it has
  // rejoined since, the message it owed died with the old incarnation.
  bool Gone(const mnet::Liveness& live, mnet::SiteId s) const {
    return !live.SiteUp(s) || live.CrashedSince(s, created_at_);
  }
  mmem::SiteMask GoneOwing(const mnet::Liveness& live) const {
    mmem::SiteMask gone = 0;
    mmem::ForEachSite(owing_, [&](mnet::SiteId s) {
      if (Gone(live, s)) {
        gone |= mmem::MaskOf(s);
      }
    });
    return gone;
  }

  State state() const {
    if (rule_ == Rule::kAll) {
      return owed_total_ == 0 ? State::kComplete : State::kPending;
    }
    if (got_ > 0 && got_ >= (got_ + owed_total_ + 2) / 2) {
      return State::kComplete;
    }
    return owed_total_ == 0 ? State::kFailed : State::kPending;
  }

  // How long a waiter may sleep at `now` before looking again: 0 = until an
  // ack wakes it; negative = the deadline has passed.
  msim::Duration NextSleep(msim::Time now) const {
    if (deadline_ == 0) {
      return period_ > 0 ? period_ : 0;
    }
    const msim::Duration left = deadline_ - now;
    if (left <= 0) {
      return -1;
    }
    return period_ > 0 && period_ < left ? period_ : left;
  }
  // Whether the wait ever gives up on its own.
  bool timed() const { return deadline_ != 0 || period_ > 0; }

  // Acks received, plus acks forgiven under Forgiveness::kCount.
  int got() const { return got_; }
  const mmem::SiteMask& owing() const { return owing_; }

 private:
  Rule rule_;
  Forgiveness forgiveness_;
  msim::Time created_at_;
  msim::Time deadline_;
  msim::Duration period_;
  std::array<std::uint32_t, mmem::kMaxSites> owed_{};
  mmem::SiteMask owing_ = 0;   // sites with owed_ > 0
  mmem::SiteMask pinned_ = 0;
  int owed_total_ = 0;
  int got_ = 0;
};

}  // namespace mirage

#endif  // SRC_MIRAGE_ACK_SET_H_
