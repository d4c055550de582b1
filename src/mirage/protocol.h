// Mirage DSM protocol messages and options.
//
// Message flow (paper §6.0-6.1):
//  * a faulting site sends kPageRequest to the segment's library site;
//  * the library queues requests and processes them strictly sequentially,
//    batching read requests for the same page;
//  * state transitions that need a clock check send kClockOp to the page's
//    clock site (the site with the freshest copy). The clock site either
//    refuses with kWaitReply (window Delta unexpired; library sleeps and
//    retries) or executes the operation: invalidate/downgrade its copy,
//    invalidate any other readers (kInvalidatePage / kInvalidateAck,
//    sequential point-to-point), and distribute the page (kPageInstall) or
//    an upgrade notification (kUpgradeGrant) to the new holder(s);
//  * each new holder acknowledges the library (kInstallAck); the library
//    then proceeds to the next queued request.
#ifndef SRC_MIRAGE_PROTOCOL_H_
#define SRC_MIRAGE_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/mem/page.h"
#include "src/net/packet.h"
#include "src/sim/time.h"

namespace mirage {

enum class MsgKind : std::uint32_t {
  kPageRequest = 1,
  kClockOp = 2,
  kWaitReply = 3,
  kInvalidatePage = 4,
  kInvalidateAck = 5,
  kPageInstall = 6,
  kUpgradeGrant = 7,
  kInstallAck = 8,
  // Failure model: the library could not complete the operation for this
  // page (clock site crashed with the only valid copy, or the clock op
  // exceeded its operation deadline). Sent to every waiting requester; the
  // requester fails the fault with FaultStatus::kPageLost.
  kRequestFailed = 9,
  // Recovery (library-site failover): the elected successor library asks
  // every surviving attached site for its copy-state of a segment...
  kRecoveryQuery = 10,
  // ...and each survivor answers with one PageCopyState per page. The
  // successor reconstructs the page directory from these answers.
  kRecoveryReply = 11,
  // Replication (opt-in, ProtocolOptions::replicas >= 2): the committing
  // site ships a page's committed bytes to a replica site...
  kReplicate = 12,
  // ...which stores them as a cold standby and acknowledges. A write quorum
  // of these acks gates the grant (commit-before-grant).
  kReplicateAck = 13,
  // Recovery: the rebuilding library asks a replica holder to promote its
  // standby copy to a live read-only primary (degraded read path).
  kPromoteReplica = 14,
  // Site rejoin (crash-recovery lifecycle): a revived site announces itself
  // to each segment's library...
  kRejoinAnnounce = 15,
  // ...and the library re-admits it: scrubs the rejoiner's pre-crash
  // membership, answers with the current epoch (the fence), and re-spreads
  // standby replicas back onto it.
  kRejoinWelcome = 16,
};

const char* MsgKindName(MsgKind k);

// Each message body below names its MsgKind (Body::kKind), and its wire
// size follows from whether it carries page data: a body with a `data` page
// costs kPageMsgBytes, any other is a "short" message in the paper's cost
// model. Engine::Send and the engine's receive path read both from the body
// type, so no call site restates them.
inline constexpr std::uint32_t kShortMsgBytes = 64;
inline constexpr std::uint32_t kPageMsgBytes = 64 + mmem::kPageSize;
template <typename Body>
inline constexpr std::uint32_t kWireBytes =
    requires(const Body& b) { b.data; } ? kPageMsgBytes : kShortMsgBytes;

struct PageRequestBody {
  static constexpr MsgKind kKind = MsgKind::kPageRequest;
  mmem::SegmentId seg = -1;
  mmem::PageNum page = 0;
  bool write = false;
  mnet::SiteId requester = mnet::kNoSite;
  int pid = -1;  // requesting process, recorded by the library log (§9)
  std::uint32_t epoch = 0;
};

// What the clock site must do on behalf of the library (paper Table 1).
enum class ClockAction : std::uint32_t {
  // Readers -> Readers: send a copy to new readers; no clock check, no
  // invalidation; the clock site is informed of the additional readers.
  kSendCopy,
  // Readers/Writer -> Writer, new writer not in the read set: invalidate
  // everything and ship the page to the new writer.
  kInvalidateForWriter,
  // Readers -> Writer where the new writer is in the old read set:
  // optimization 1 — invalidate the others, send only a notification.
  kUpgradeWriter,
  // Writer -> Readers with optimization 2: the writer downgrades to reader,
  // retains its copy and remains the clock site.
  kDowngradeForReaders,
  // Writer -> Readers with optimization 2 disabled: the writer's copy is
  // invalidated outright.
  kInvalidateForReaders,
  // Replication re-spread: no grant, no invalidation, no clock check — the
  // clock site just re-replicates its committed copy to a refreshed replica
  // set (membership changed underneath the page).
  kReplicateOnly,
};

const char* ClockActionName(ClockAction a);

struct ClockOpBody {
  static constexpr MsgKind kKind = MsgKind::kClockOp;
  mmem::SegmentId seg = -1;
  mmem::PageNum page = 0;
  std::uint64_t req_id = 0;
  ClockAction action = ClockAction::kSendCopy;
  // New holders of the page after the operation.
  mmem::SiteMask targets = 0;
  // Readers other than the clock site and the upgrade target that must be
  // invalidated before the operation completes.
  mmem::SiteMask invalidate_set = 0;
  // Full resulting reader set (clock site keeps its auxpte mask current).
  mmem::SiteMask resulting_readers = 0;
  // Window installed with the page at the new holder(s). The library may
  // adjust this per page (the paper's dynamic-Delta hook).
  msim::Duration new_window_us = 0;
  bool clock_check = true;
  mnet::SiteId library_site = mnet::kNoSite;
  std::uint32_t epoch = 0;
  // Replication (replicas >= 2): sites that must hold a standby copy of the
  // committed page before the grant may proceed, and the version number this
  // commit establishes. Empty mask = replication disabled for this op.
  mmem::SiteMask replicate_set = 0;
  std::uint64_t commit_version = 0;
};

struct WaitReplyBody {
  static constexpr MsgKind kKind = MsgKind::kWaitReply;
  mmem::SegmentId seg = -1;
  mmem::PageNum page = 0;
  std::uint64_t req_id = 0;
  msim::Duration remaining_us = 0;
  std::uint32_t epoch = 0;
};

struct InvalidatePageBody {
  static constexpr MsgKind kKind = MsgKind::kInvalidatePage;
  mmem::SegmentId seg = -1;
  mmem::PageNum page = 0;
  std::uint64_t req_id = 0;
  mnet::SiteId clock_site = mnet::kNoSite;
  std::uint32_t epoch = 0;
};

struct InvalidateAckBody {
  static constexpr MsgKind kKind = MsgKind::kInvalidateAck;
  mmem::SegmentId seg = -1;
  mmem::PageNum page = 0;
  std::uint64_t req_id = 0;
  mnet::SiteId from = mnet::kNoSite;
  std::uint32_t epoch = 0;
};

struct PageInstallBody {
  static constexpr MsgKind kKind = MsgKind::kPageInstall;
  mmem::SegmentId seg = -1;
  mmem::PageNum page = 0;
  std::uint64_t req_id = 0;
  bool writable = false;
  msim::Duration window_us = 0;
  mnet::SiteId library_site = mnet::kNoSite;
  // auxpte seed for the receiver (meaningful when it becomes the clock site).
  mmem::SiteMask resulting_readers = 0;
  mnet::SiteId writer_site = mnet::kNoSite;
  std::uint32_t epoch = 0;
  mmem::PageBytes data;
};

struct UpgradeGrantBody {
  static constexpr MsgKind kKind = MsgKind::kUpgradeGrant;
  mmem::SegmentId seg = -1;
  mmem::PageNum page = 0;
  std::uint64_t req_id = 0;
  msim::Duration window_us = 0;
  mnet::SiteId library_site = mnet::kNoSite;
  std::uint32_t epoch = 0;
};

struct InstallAckBody {
  static constexpr MsgKind kKind = MsgKind::kInstallAck;
  mmem::SegmentId seg = -1;
  mmem::PageNum page = 0;
  std::uint64_t req_id = 0;
  mnet::SiteId from = mnet::kNoSite;
  std::uint32_t epoch = 0;
};

struct RequestFailedBody {
  static constexpr MsgKind kKind = MsgKind::kRequestFailed;
  mmem::SegmentId seg = -1;
  mmem::PageNum page = 0;
  std::uint64_t req_id = 0;
  std::uint32_t epoch = 0;
};

// Failover election (library-site crash recovery). The elected successor
// solicits copy-state from every surviving attached site and rebuilds the
// page directory from the replies. Both messages carry the *new* epoch.
struct RecoveryQueryBody {
  static constexpr MsgKind kKind = MsgKind::kRecoveryQuery;
  mmem::SegmentId seg = -1;
  std::uint32_t epoch = 0;
  mnet::SiteId new_library = mnet::kNoSite;
};

// One surviving site's view of one page: whether it holds a copy, whether
// that copy is writable, and when it was installed (freshness for clock-site
// reassignment). With replication, also whether the site holds a standby
// replica and at what committed version (promotion candidate selection).
struct PageCopyState {
  bool present = false;
  bool writable = false;
  msim::Time install_time = 0;
  bool replica_present = false;
  std::uint64_t replica_version = 0;
};

struct RecoveryReplyBody {
  static constexpr MsgKind kKind = MsgKind::kRecoveryReply;
  mmem::SegmentId seg = -1;
  std::uint32_t epoch = 0;
  mnet::SiteId from = mnet::kNoSite;
  std::vector<PageCopyState> pages;
};

// Replication: carries the committed page bytes to a replica site. Carries
// page data, so it costs kPageMsgBytes on the wire.
struct ReplicateBody {
  static constexpr MsgKind kKind = MsgKind::kReplicate;
  mmem::SegmentId seg = -1;
  mmem::PageNum page = 0;
  std::uint64_t req_id = 0;
  std::uint64_t version = 0;
  mnet::SiteId from = mnet::kNoSite;
  std::uint32_t epoch = 0;
  mmem::PageBytes data;
};

struct ReplicateAckBody {
  static constexpr MsgKind kKind = MsgKind::kReplicateAck;
  mmem::SegmentId seg = -1;
  mmem::PageNum page = 0;
  std::uint64_t req_id = 0;
  std::uint64_t version = 0;
  mnet::SiteId from = mnet::kNoSite;
  std::uint32_t epoch = 0;
};

// Recovery: the rebuilding library instructs a replica holder to install its
// standby copy as a live read-only primary. Acknowledged with kInstallAck.
struct PromoteReplicaBody {
  static constexpr MsgKind kKind = MsgKind::kPromoteReplica;
  mmem::SegmentId seg = -1;
  mmem::PageNum page = 0;
  std::uint64_t req_id = 0;
  std::uint64_t version = 0;
  msim::Duration window_us = 0;
  mnet::SiteId library_site = mnet::kNoSite;
  std::uint32_t epoch = 0;
};

// Site rejoin: sent by a site revived with amnesia to the library of every
// segment it was attached to before the crash. Carries the registry epoch
// the rejoiner read, so a library that has since moved on fences it.
struct RejoinAnnounceBody {
  static constexpr MsgKind kKind = MsgKind::kRejoinAnnounce;
  mmem::SegmentId seg = -1;
  mnet::SiteId from = mnet::kNoSite;
  std::uint32_t epoch = 0;
};

// The library's re-admission answer. The epoch is the fence: the rejoiner
// adopts it and is thereby barred from acting on anything older.
struct RejoinWelcomeBody {
  static constexpr MsgKind kKind = MsgKind::kRejoinWelcome;
  mmem::SegmentId seg = -1;
  std::uint32_t epoch = 0;
  mnet::SiteId library_site = mnet::kNoSite;
};

// Seeded protocol bugs for mutation smoke-testing the checker (mcheck,
// DESIGN.md §11). Each flag re-creates a realistic implementation slip; the
// mutation suite asserts that mcheck's invariants or schedule exploration
// catch every one, which is the evidence the checker has teeth. All default
// off; production code paths are byte-identical with the struct untouched.
struct MutationOptions {
  // Replica fan-out/wait off by one: the library targets one fewer standby
  // than ProtocolOptions::replicas asks for (the classic `n - 1` slip in the
  // replica-set loop). Detected by CheckReplicaCoverage: live fresh copies
  // fall short of the achievable replica count.
  bool quorum_off_by_one = false;
  // The epoch fence is skipped: a site accepts protocol messages stamped
  // with an older epoch instead of discarding them. Detected by schedule
  // exploration of failover worlds — a stale pre-election clock op executing
  // after the successor rebuilt the directory corrupts coherence.
  bool skip_epoch_fence = false;
  // The clock site distributes installs/upgrades without waiting for
  // invalidate acks, so a new writable copy can coexist with not-yet-dead
  // reader copies. Detected by CheckPhysical (writer/reader overlap) and by
  // the SC witness checker on same-page litmus tests.
  bool drop_invalidate_ack = false;

  bool AnyEnabled() const {
    return quorum_off_by_one || skip_epoch_fence || drop_invalidate_ack;
  }
};

// Tunables and the paper's optional mechanisms.
struct ProtocolOptions {
  // The time window Delta, per segment by default; pages inherit it and can
  // be tuned individually through Engine::SetPageWindow.
  msim::Duration default_window_us = 0;

  // Optimization 1 (§6.1): reader-to-writer upgrade sends a notification
  // instead of the page.
  bool upgrade_optimization = true;

  // Optimization 2 (§6.1): a writer invalidated by readers retains a
  // read-only copy and remains the clock site.
  bool downgrade_optimization = true;

  // §7.1 caveat 1: honor an invalidation when less of the window remains
  // than an invalidation retry would cost. The paper's implementation did
  // not have this, so it defaults off.
  bool honor_small_remaining = false;

  // The "queued invalidation" the paper names but did not implement: the
  // clock site holds a refused invalidation and executes it at window
  // expiry, saving the retry round trip. Off by default.
  bool queued_invalidation = false;

  // §9: log every request arriving at the library.
  bool enable_request_log = false;

  // Extension: let the library service requests for *different* pages
  // concurrently (ordering is still strict per page). The paper's library
  // processes its queue strictly sequentially, which serializes independent
  // pages behind one another — visible in multi-page workloads like the Li
  // suite. Off by default for fidelity. On, the library runs four service
  // processes.
  bool parallel_page_ops = false;

  // ---- Failure model (DESIGN.md): all default 0 = disabled, i.e. the
  // paper's wait-forever behavior on a live network. Enable for runs with a
  // FaultPlan. ----

  // A using site that gets no response to a kPageRequest re-sends it after
  // this long, doubling the wait each attempt (exponential backoff). The
  // library deduplicates re-sent requests, so a slow response is harmless.
  msim::Duration request_timeout_us = 0;
  // Re-send budget (total attempts including the first). When exhausted the
  // fault fails with FaultStatus::kTimedOut. Only meaningful when
  // request_timeout_us > 0.
  int max_request_attempts = 5;
  // The library's patience for one missing ack (install or invalidate)
  // while a clock op is in flight. On expiry, acks owed by crashed sites
  // are forgiven — their copies are by definition gone — and the operation
  // completes in degraded mode if anything was still accomplished.
  msim::Duration ack_timeout_us = 0;
  // Hard deadline for a whole clock operation. On expiry the operation
  // fails: the page is marked lost and every waiting requester gets
  // kRequestFailed. Guards against alive-but-partitioned holders (we choose
  // consistency over availability: never fabricate page contents).
  msim::Duration op_timeout_us = 0;

  // ---- Replication (extension; DESIGN.md §8). 1 = off, the paper's
  // single-copy protocol, byte-identical to pre-replication builds. k >= 2
  // keeps k cold-standby replicas of every page's last *committed* version
  // (placement chosen by the library), and every commit point waits for a
  // write quorum of ceil((k+1)/2) replica acks before granting — so a crash
  // of fewer than a quorum of replica holders can never lose a page. ----
  int replicas = 1;

  // Dynamic window tuning hook ("currently ... disabled" in the paper).
  // Called when the library forwards an invalidation; the returned value is
  // installed as the page's window at the new holder.
  std::function<msim::Duration(mmem::SegmentId, mmem::PageNum, msim::Duration)> dynamic_window;

  // Seeded bugs for checker mutation testing; all off in real runs.
  MutationOptions mutations;
};

}  // namespace mirage

#endif  // SRC_MIRAGE_PROTOCOL_H_
