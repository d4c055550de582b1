#include "src/fault/fault.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace mfault {

const char* FaultKindName(FaultKind k) {
  switch (k) {
    case FaultKind::kCrashSite:
      return "CRASH";
    case FaultKind::kPauseSite:
      return "PAUSE";
    case FaultKind::kResumeSite:
      return "RESUME";
    case FaultKind::kPartitionLink:
      return "PARTITION";
    case FaultKind::kHealLink:
      return "HEAL";
    case FaultKind::kRecoverSite:
      return "RECOVER";
  }
  return "?";
}

namespace {

// The latest event time, 10^18 us (about 31,700 years): a time, and the sum
// of two, stay inside msim::Time.
constexpr msim::Time kLatestEventUs = 1'000'000'000'000'000'000;

// The write `ev` makes to the fault table at `now`: the one
// FaultInjector::Apply makes and FaultPlan::Validate replays. Returns
// whether it changed anything.
bool Write(mnet::Liveness& live, const FaultEvent& ev, msim::Time now) {
  switch (ev.kind) {
    case FaultKind::kCrashSite:
      return live.Crash(ev.site, now);
    case FaultKind::kPauseSite:
      return live.Pause(ev.site);
    case FaultKind::kResumeSite:
      return live.Resume(ev.site);
    case FaultKind::kPartitionLink:
      return live.Cut(ev.site, ev.peer);
    case FaultKind::kHealLink:
      return live.Heal(ev.site, ev.peer);
    case FaultKind::kRecoverSite:
      return live.Recover(ev.site);
  }
  return false;
}

bool IsLinkEvent(FaultKind k) {
  return k == FaultKind::kPartitionLink || k == FaultKind::kHealLink;
}

}  // namespace

bool FaultPlan::Validate(int site_count, std::string* error) const {
  for (const FaultEvent& ev : events_) {
    if (ev.at_us < 0 || ev.at_us > kLatestEventUs) {
      if (error != nullptr) {
        *error = std::string(FaultKindName(ev.kind)) + " at " + std::to_string(ev.at_us) +
                 "us is outside the simulated time [0, 10^18] us";
      }
      return false;
    }
    for (mnet::SiteId s : {ev.site, IsLinkEvent(ev.kind) ? ev.peer : ev.site}) {
      if (s < 0 || s >= site_count) {
        if (error != nullptr) {
          *error = std::string(FaultKindName(ev.kind)) + " at " + std::to_string(ev.at_us) +
                   "us names site " + std::to_string(s) + ", but the world has sites 0.." +
                   std::to_string(site_count - 1);
        }
        return false;
      }
    }
  }
  // Replay the schedule in firing order: ScheduleAt breaks time ties by
  // insertion order, so a stable sort by time reproduces it exactly. An
  // event whose write changes nothing does nothing when it fires, which
  // almost certainly means a typo in the schedule.
  std::vector<FaultEvent> ordered = events_;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at_us < b.at_us; });
  mnet::Liveness live;
  for (const FaultEvent& ev : ordered) {
    if (!Write(live, ev, ev.at_us)) {
      if (error != nullptr) {
        const std::string where =
            IsLinkEvent(ev.kind)
                ? "link " + std::to_string(ev.site) + "-" + std::to_string(ev.peer)
                : "site " + std::to_string(ev.site);
        *error = std::string(FaultKindName(ev.kind)) + " at " + std::to_string(ev.at_us) +
                 "us on " + where + " changes nothing at that time";
      }
      return false;
    }
  }
  return true;
}

FaultInjector::FaultInjector(msim::Simulator* sim, mnet::Network* net,
                             std::vector<mos::Kernel*> kernels, mtrace::Tracer* tracer)
    : sim_(sim), net_(net), kernels_(std::move(kernels)), tracer_(tracer) {}

void FaultInjector::Schedule(const FaultPlan& plan) {
  std::string error;
  if (!plan.Validate(static_cast<int>(kernels_.size()), &error)) {
    throw std::invalid_argument("invalid fault plan: " + error);
  }
  for (const FaultEvent& ev : plan.events()) {
    sim_->ScheduleAt(ev.at_us, [this, ev] { Apply(ev); });
  }
}

void FaultInjector::Apply(const FaultEvent& ev) {
  mnet::Liveness& live = net_->liveness();
  const bool was_paused = live.Paused(ev.site);
  if (!Write(live, ev, sim_->Now())) {
    return;
  }
  switch (ev.kind) {
    case FaultKind::kCrashSite:
      ++stats_.crashes;
      kernels_[ev.site]->Halt();
      if (was_paused) {
        // A crash supersedes a pause: the packets held for the paused
        // site die with it rather than replaying at a later resume.
        std::uint64_t dropped = net_->DropHeld(ev.site);
        stats_.held_dropped_on_crash += dropped;
        if (dropped != 0) {
          Trace(ev.site, std::to_string(dropped) + " held packet(s) dropped at crash");
        }
      }
      Trace(ev.site, "site crashed");
      for (const CrashObserver& obs : crash_observers_) {
        obs(ev.site);
      }
      break;
    case FaultKind::kPauseSite:
      ++stats_.pauses;
      Trace(ev.site, "site paused (inbound delivery stalled)");
      break;
    case FaultKind::kResumeSite:
      ++stats_.resumes;
      Trace(ev.site, "site resumed");
      net_->FlushHeld(ev.site);
      break;
    case FaultKind::kPartitionLink:
      ++stats_.partitions;
      Trace(ev.site, "link to site " + std::to_string(ev.peer) + " partitioned");
      break;
    case FaultKind::kHealLink:
      ++stats_.heals;
      Trace(ev.site, "link to site " + std::to_string(ev.peer) + " healed");
      break;
    case FaultKind::kRecoverSite:
      ++stats_.recoveries;
      stats_.downtime_us += sim_->Now() - live.CrashedAt(ev.site);
      kernels_[ev.site]->Revive();
      // Both directions of every circuit touching the site carry state
      // from before the crash (unacked windows, retransmit timers); reset
      // them so the revived site starts from clean transport state.
      net_->ResetCircuits(ev.site);
      Trace(ev.site, "site rejoined");
      for (const RecoverObserver& obs : recover_observers_) {
        obs(ev.site);
      }
      break;
  }
}

void FaultInjector::Trace(mnet::SiteId site, const std::string& detail) {
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Record(sim_->Now(), site, "fault-inject", detail);
  }
}

}  // namespace mfault
