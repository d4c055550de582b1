// Deterministic site/link fault injection.
//
// Mirage leans on the Locus substrate for liveness: the paper's protocol
// assumes every site answers eventually (§7.1). This subsystem makes site
// failure a first-class, injectable, recoverable event so the protocol's
// timeout/backoff/degraded-mode paths (DESIGN.md "Failure model") can be
// exercised reproducibly:
//
//  * crash(site)        — the site halts: its kernel stops executing and
//    every packet to or from it is dropped (counted);
//  * recover(site)      — a crashed site reboots with amnesia: fresh kernel
//    state, empty page tables, reset virtual circuits. The DSM layer runs an
//    epoch-fenced re-admission handshake on top of this (DESIGN.md §8);
//  * pause/resume(site) — a transient stall of the site's inbound packet
//    delivery (a wedged network server / long GC-like stall): packets are
//    held in order and released at resume;
//  * partition/heal(a,b) — the link between two sites is cut in both
//    directions; with the circuit layer configured, retransmission recovers
//    everything sent during a healed partition.
//
// All transitions are simulator events scheduled from a FaultPlan, so a run
// with a fixed seed and a fixed plan is bit-for-bit reproducible.
#ifndef SRC_FAULT_FAULT_H_
#define SRC_FAULT_FAULT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/net/network.h"
#include "src/os/kernel.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"
#include "src/trace/trace.h"

namespace mfault {

enum class FaultKind {
  kCrashSite,
  kPauseSite,
  kResumeSite,
  kPartitionLink,
  kHealLink,
  kRecoverSite,
};

const char* FaultKindName(FaultKind k);

struct FaultEvent {
  msim::Time at_us = 0;
  FaultKind kind = FaultKind::kCrashSite;
  mnet::SiteId site = mnet::kNoSite;  // crash/pause/resume target, or one end
  mnet::SiteId peer = mnet::kNoSite;  // the other end of a partition/heal
};

// A declarative schedule of faults. Build one, hand it to the World (or a
// FaultInjector directly); every event fires at its simulated time.
class FaultPlan {
 public:
  FaultPlan& CrashAt(msim::Time t, mnet::SiteId site) {
    events_.push_back({t, FaultKind::kCrashSite, site, mnet::kNoSite});
    return *this;
  }
  FaultPlan& PauseAt(msim::Time t, mnet::SiteId site) {
    events_.push_back({t, FaultKind::kPauseSite, site, mnet::kNoSite});
    return *this;
  }
  FaultPlan& ResumeAt(msim::Time t, mnet::SiteId site) {
    events_.push_back({t, FaultKind::kResumeSite, site, mnet::kNoSite});
    return *this;
  }
  FaultPlan& PartitionAt(msim::Time t, mnet::SiteId a, mnet::SiteId b) {
    events_.push_back({t, FaultKind::kPartitionLink, a, b});
    return *this;
  }
  FaultPlan& HealAt(msim::Time t, mnet::SiteId a, mnet::SiteId b) {
    events_.push_back({t, FaultKind::kHealLink, a, b});
    return *this;
  }
  // Revives a crashed site with amnesia at time t.
  FaultPlan& RecoverAt(msim::Time t, mnet::SiteId site) {
    events_.push_back({t, FaultKind::kRecoverSite, site, mnet::kNoSite});
    return *this;
  }

  // Checks the plan against a world of `site_count` sites. Rejects a plan
  // with an event time outside [0, 10^18] us or that names a site outside
  // [0, site_count) (a crash, pause, resume or recover target, or either
  // end of a cut or heal), and replays the timeline (events ordered by
  // time, plan order on ties — the order the simulator fires them) to
  // reject the first event that would change nothing: a crash of a crashed
  // site, a pause of a crashed or paused one, a resume of an unpaused one, a
  // recover of a live one, a cut of a cut link or a heal of an uncut one.
  // Returns false and fills `error` on rejection.
  // FaultInjector::Schedule calls this and throws std::invalid_argument on
  // failure.
  bool Validate(int site_count, std::string* error) const;

  bool empty() const { return events_.empty(); }
  const std::vector<FaultEvent>& events() const { return events_; }

 private:
  std::vector<FaultEvent> events_;
};

struct FaultInjectorStats {
  std::uint64_t crashes = 0;
  std::uint64_t pauses = 0;
  std::uint64_t resumes = 0;
  std::uint64_t partitions = 0;
  std::uint64_t heals = 0;
  // Packets that were held for a paused site when that site crashed: the
  // held queue dies with the site instead of replaying at a later resume.
  std::uint64_t held_dropped_on_crash = 0;
  // ---- Crash-recovery lifecycle (DESIGN.md §8 rejoin) ----
  std::uint64_t recoveries = 0;  // crashed sites revived (with amnesia)
  // Summed crash-to-recover downtime of every revived site; MTTR for a run
  // is downtime_us / recoveries.
  msim::Duration downtime_us = 0;
};

// Executes a FaultPlan against a simulated world: writes each transition
// into the network's mnet::Liveness table (the one copy of fault state every
// layer reads), halts and revives kernels, and drops or releases the traffic
// held for a paused site.
class FaultInjector {
 public:
  // `kernels[s]` must be the kernel for site s. `tracer` may be null.
  FaultInjector(msim::Simulator* sim, mnet::Network* net,
                std::vector<mos::Kernel*> kernels, mtrace::Tracer* tracer = nullptr);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedules every event in the plan. Call before (or during) the run;
  // events in the past fire immediately, in plan order. Throws
  // std::invalid_argument when FaultPlan::Validate rejects the plan.
  void Schedule(const FaultPlan& plan);

  // Registers a callback fired (synchronously, registration order) right
  // after a site transitions to crashed. The protocol layer uses this to
  // start library-site failover elections deterministically.
  using CrashObserver = std::function<void(mnet::SiteId)>;
  void AddCrashObserver(CrashObserver obs) { crash_observers_.push_back(std::move(obs)); }

  // Registers a callback fired (synchronously, registration order) right
  // after a crashed site is revived — its kernel has restarted and its
  // circuits are reset by the time observers run. The DSM layer uses this to
  // run the epoch-fenced re-admission handshake; workloads use it to respawn
  // the site's workers.
  using RecoverObserver = std::function<void(mnet::SiteId)>;
  void AddRecoverObserver(RecoverObserver obs) {
    recover_observers_.push_back(std::move(obs));
  }

  const FaultInjectorStats& stats() const { return stats_; }

 private:
  // Applies one event of a validated plan, so its sites are in range.
  void Apply(const FaultEvent& ev);
  void Trace(mnet::SiteId site, const std::string& detail);

  msim::Simulator* sim_;
  mnet::Network* net_;
  std::vector<mos::Kernel*> kernels_;
  mtrace::Tracer* tracer_;
  std::vector<CrashObserver> crash_observers_;
  std::vector<RecoverObserver> recover_observers_;
  FaultInjectorStats stats_;
};

}  // namespace mfault

#endif  // SRC_FAULT_FAULT_H_
