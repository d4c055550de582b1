// Global protocol invariant checking across all sites.
//
// Two classes of invariant:
//  * physical (always true, even mid-operation): for every page, a writable
//    copy never coexists with any other copy (§5.0's coherence condition at
//    the copy level);
//  * directory (true whenever the protocol is quiescent): the library's
//    view — mode, reader set, writer, clock site — agrees with the images
//    actually present at the sites, and the clock site's auxpte mirrors the
//    reader set (Table 2).
//
// Used by the stress tests as a continuously-sampled oracle, and available
// to embedders as a debugging aid (dsm doctor).
#ifndef SRC_MIRAGE_INVARIANTS_H_
#define SRC_MIRAGE_INVARIANTS_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/mirage/engine.h"

namespace mirage {

struct InvariantReport {
  std::vector<std::string> violations;
  int pages_checked = 0;
  bool ok() const { return violations.empty(); }
};

class InvariantChecker {
 public:
  // The checks are scoped to the sites the engines' network holds live: a
  // crashed site's frozen image is not part of the system any more, a
  // segment whose library site is down has no authoritative directory until
  // failover completes, and pages marked lost are exempt from the
  // directory/image agreement. With no engines every site is live.
  explicit InvariantChecker(std::vector<Engine*> engines)
      : engines_(std::move(engines)),
        live_(engines_.empty() ? nullptr : &engines_.front()->kernel()->net()->liveness()) {}

  // Physical invariants only — safe to call at any instant.
  InvariantReport CheckPhysical(const SegmentRegistry& registry) const;

  // Physical + directory invariants — call when the protocol is quiescent
  // (no faults outstanding, queues drained). Also asserts epoch
  // monotonicity: no live site believes in an epoch beyond the registry's,
  // and — statefully, across successive CheckFull calls on this checker —
  // no segment's registry epoch and no continuously-live site's adopted
  // epoch ever goes backwards.
  InvariantReport CheckFull(const SegmentRegistry& registry) const;

  // Post-rejoin replica coverage (opt-in — call only once the protocol has
  // quiesced after a crash/rejoin cycle): every committed page's live
  // standbys at the committed version must number at least
  // min(k, live candidate sites), i.e. re-spread pulled coverage back to
  // full k wherever the membership allows it.
  InvariantReport CheckReplicaCoverage(const SegmentRegistry& registry) const;

 private:
  bool Live(mnet::SiteId s) const { return live_ == nullptr || live_->SiteUp(s); }
  void CheckSegmentPhysical(const mmem::SegmentMeta& meta, InvariantReport* report) const;
  void CheckSegmentDirectory(const mmem::SegmentMeta& meta, InvariantReport* report) const;
  // Replication invariants (only when the library runs with replicas >= 2):
  // the directory's standby set is real (live members hold the committed
  // version at a current epoch), at least one live standby exists for every
  // committed page, and no live site holds a standby from the future.
  void CheckSegmentReplication(const mmem::SegmentMeta& meta, InvariantReport* report) const;
  // Epoch monotonicity: the registry's epoch is the global maximum; a live
  // site that adopted a higher one could fence the authoritative library.
  void CheckSegmentEpochs(const mmem::SegmentMeta& meta, InvariantReport* report) const;

  Engine* EngineAt(mnet::SiteId s) const {
    for (Engine* e : engines_) {
      if (e->site() == s) {
        return e;
      }
    }
    return nullptr;
  }

  std::vector<Engine*> engines_;
  const mnet::Liveness* live_;
  // Stateful epoch-monotonicity baselines (mutable: the Check* interface is
  // const; these record observations, not system state). A site's entry is
  // dropped while it is down — a rejoiner restarts its monotonic history,
  // because amnesia legitimately resets what it "knows".
  mutable std::map<mmem::SegmentId, std::uint32_t> last_registry_epoch_;
  mutable std::map<std::pair<mnet::SiteId, mmem::SegmentId>, std::uint32_t> last_site_epoch_;
};

}  // namespace mirage

#endif  // SRC_MIRAGE_INVARIANTS_H_
