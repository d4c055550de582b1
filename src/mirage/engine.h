// The per-site Mirage DSM engine.
//
// Each site runs one Engine on top of its Kernel. The engine plays three
// protocol roles at once:
//  * using site  — Fault() suspends a faulting process, issues the page
//    request (local enqueue when the library is colocated, a network message
//    otherwise) and wakes the process when access is available;
//  * library site — for segments created here, a kernel lightweight process
//    services the single request queue strictly sequentially, batching read
//    requests per page (§6.1), driving clock checks, retrying refused
//    invalidations after the reported wait, and applying Table 1;
//  * clock site  — the interrupt path performs the Delta clock check and
//    either refuses with the remaining time or hands the operation to the
//    site's worker process, which invalidates other readers point-to-point
//    (collecting acks so no stale copy survives a write grant) and then
//    distributes the page or the upgrade notification.
#ifndef SRC_MIRAGE_ENGINE_H_
#define SRC_MIRAGE_ENGINE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "src/mem/address_space.h"
#include "src/mem/backend.h"
#include "src/mem/page.h"
#include "src/mem/segment.h"
#include "src/mem/segment_image.h"
#include "src/mirage/ack_set.h"
#include "src/mirage/protocol.h"
#include "src/mirage/registry.h"
#include "src/mirage/request_log.h"
#include "src/os/kernel.h"
#include "src/sim/flat_map.h"
#include "src/trace/histogram.h"
#include "src/trace/trace.h"

namespace mirage {

struct EngineStats {
  std::uint64_t read_faults = 0;
  std::uint64_t write_faults = 0;
  std::uint64_t remote_requests_sent = 0;
  std::uint64_t local_requests = 0;
  std::uint64_t requests_processed = 0;
  std::uint64_t requests_dropped = 0;
  std::uint64_t read_batches = 0;
  std::uint64_t batched_extra_reads = 0;
  std::uint64_t pages_installed = 0;
  std::uint64_t upgrades_received = 0;
  std::uint64_t downgrades_performed = 0;
  std::uint64_t local_invalidations = 0;
  std::uint64_t wait_replies_sent = 0;
  std::uint64_t invalidation_retries = 0;
  std::uint64_t queued_invalidations = 0;
  std::uint64_t clock_ops_executed = 0;
  // ---- Failure model (DESIGN.md): all zero on a healthy run ----
  std::uint64_t request_timeouts = 0;        // using site re-sent a page request
  std::uint64_t faults_failed = 0;           // Fault() returned non-kOk
  std::uint64_t degraded_acks = 0;           // install acks forgiven (holder down)
  std::uint64_t degraded_invalidations = 0;  // invalidate acks forgiven (reader down)
  std::uint64_t ops_failed = 0;              // library ops abandoned; page marked lost
  std::uint64_t fail_notices_sent = 0;       // kRequestFailed sent/applied by library
  std::uint64_t fail_notices_received = 0;   // kRequestFailed applied at using site
  // ---- Library-site failover (DESIGN.md §8): all zero on a healthy run ----
  std::uint64_t elections_won = 0;           // this site took over as library
  std::uint64_t recoveries_completed = 0;    // directory reconstructions finished
  std::uint64_t pages_recovered = 0;         // pages re-homed from survivor copies
  std::uint64_t pages_lost_in_recovery = 0;  // pages whose every copy died
  std::uint64_t recovery_replies_sent = 0;   // kRecoveryQuery answered by this site
  std::uint64_t stale_epoch_drops = 0;       // pre-crash messages fenced by epoch
  // ---- Replication (opt-in, replicas >= 2): all zero when replicas == 1 ----
  std::uint64_t replica_writes = 0;      // kReplicate messages sent by this site
  std::uint64_t quorum_waits = 0;        // commit points that waited on a write quorum
  std::uint64_t degraded_reads = 0;      // pages served by promoting a standby replica
  std::uint64_t replica_respreads = 0;   // re-spread ops completed after membership change
  // ---- Site rejoin (crash-recovery lifecycle, DESIGN.md §8) ----
  std::uint64_t rejoins = 0;             // times this site rebooted and re-admitted itself
  std::uint64_t rejoin_welcomes = 0;     // rejoin announces this site answered as library
  // Pages brought back to (or above) their pre-fault coverage: previously
  // condemned pages re-homed from a copy that became reachable again, and
  // degraded standby sets restored to full k membership by a re-spread.
  std::uint64_t pages_resurrected = 0;
  // ---- Library load (scale-out observability): how hard this site works as
  // a segment controller. The paper's library is centralized per segment;
  // these counters are the first measurement of that bottleneck. ----
  std::uint64_t lib_enqueues = 0;         // requests queued at this library
  std::uint64_t lib_queue_peak = 0;       // deepest the request queue has been
  std::uint64_t lib_queue_depth_sum = 0;  // sum of depths seen by arriving requests

  // Totals another site's statistics into these: every counter adds, and
  // lib_queue_peak, a per-site high-water mark, takes the max.
  EngineStats& operator+=(const EngineStats& o);
  bool operator==(const EngineStats&) const = default;
};

// Library-side page directory state (Table 1 "Current" column).
enum class PageMode { kEmpty, kReaders, kWriter };

const char* PageModeName(PageMode m);

// One page's directory entry at its library site. Engine::Directory hands
// out copies for tests and benches.
struct DirectoryView {
  PageMode mode = PageMode::kEmpty;
  mmem::SiteMask readers = 0;
  mnet::SiteId writer = mnet::kNoSite;
  mnet::SiteId clock_site = mnet::kNoSite;
  msim::Duration window_us = 0;
  // Set when an operation on this page fails permanently (its clock site
  // — the only holder of the current contents — crashed, or the op
  // deadline expired). A lost page is never granted again: the library
  // answers every subsequent request with kRequestFailed.
  bool lost = false;
  // Replication (replicas >= 2): version of the last committed contents
  // and the sites holding a standby copy of that version. version 0 =
  // nothing committed yet (page never granted).
  std::uint64_t version = 0;
  mmem::SiteMask replica_set = 0;
};

// A standby replica's state at one site, for tests and the invariant checker.
struct ReplicaView {
  std::uint64_t version = 0;
  std::uint32_t epoch = 0;
};

class Engine : public mmem::DsmBackend {
 public:
  Engine(mos::Kernel* kernel, SegmentRegistry* registry, ProtocolOptions opts,
         mtrace::Tracer* tracer = nullptr);
  ~Engine() override;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Spawns the library and worker processes and installs the packet handler.
  // Call before Kernel::Start().
  void Start() override;

  // Materializes the local image of a segment (and, at the library site, its
  // directory). Idempotent.
  mmem::SegmentImage* EnsureImage(const mmem::SegmentMeta& meta) override;

  // Drops all local state for a destroyed segment. The caller (the System V
  // layer) guarantees no process still has it attached anywhere.
  void DropSegment(mmem::SegmentId seg) override;

  // Suspends process `p` until this site holds the page with the requested
  // access. This is the interrupt-handler path of §6.1: it charges the fault
  // service cost, issues the (deduplicated) request, and sleeps. With
  // request_timeout_us enabled, an unanswered request is re-sent with
  // exponential backoff up to max_request_attempts; exhaustion returns
  // kTimedOut, and a library-reported lost page returns kPageLost — in both
  // cases WITHOUT the page.
  msim::Task<mmem::FaultStatus> Fault(mos::Process* p, mmem::SegmentId seg, mmem::PageNum page,
                                      bool write) override;

  // ---- Delta tuning (library site only) ----
  void SetSegmentWindow(mmem::SegmentId seg, msim::Duration window_us);
  void SetPageWindow(mmem::SegmentId seg, mmem::PageNum page, msim::Duration window_us);
  msim::Duration PageWindow(mmem::SegmentId seg, mmem::PageNum page) const;

  // ---- Introspection ----
  mmem::SegmentImage* ImageOrNull(mmem::SegmentId seg);
  std::optional<DirectoryView> Directory(mmem::SegmentId seg, mmem::PageNum page) const;
  bool IsLibraryFor(mmem::SegmentId seg) const { return dirs_.count(seg) != 0; }
  std::size_t LibraryQueueLength() const { return lib_queue_.size(); }
  const EngineStats& stats() const { return stats_; }
  // Fault-to-resume latency distributions at this (using) site.
  const mtrace::LatencyHistogram& read_fault_latency() const { return read_fault_latency_; }
  const mtrace::LatencyHistogram& write_fault_latency() const { return write_fault_latency_; }
  RequestLog& request_log() { return log_; }
  ProtocolOptions& options() { return opts_; }
  mos::Kernel* kernel() const { return kernel_; }
  mnet::SiteId site() const { return kernel_->site(); }

  // Library-site failover entry point, invoked (in ascending site order)
  // from the FaultInjector's crash observer. Scans the registry for
  // segments orphaned by the crash; if this site is the lowest live
  // attached site of such a segment it elects itself the successor library,
  // bumps the epoch, and queues a directory reconstruction. A live library
  // whose clock site died queues an in-place reconstruction instead.
  void OnSiteCrashed(mnet::SiteId crashed);
  // Site-rejoin entry point, invoked from the FaultInjector's recover
  // observer right after this site's kernel was Revive()d. Erases every
  // local trace of the pre-crash incarnation (amnesia), restarts the
  // protocol processes, and runs the epoch-fenced re-admission handshake:
  // announce to each attached segment's library, adopt the current epochs,
  // and reclaim any library role no survivor took over.
  void Rejoin();
  // The highest epoch this site has seen for `seg` (0 until a recovery).
  std::uint32_t KnownEpoch(mmem::SegmentId seg) const;
  // The standby replica this site holds for (seg, page), if any. For the
  // invariant checker and tests; empty unless replicas >= 2.
  std::optional<ReplicaView> Replica(mmem::SegmentId seg, mmem::PageNum page) const;

  // ---- Test backdoors (invariant corruption tests only) ----
  // Overwrites (seg, page)'s directory entry wholesale at this library site.
  // Returns false (and does nothing) when this site is not the segment's
  // library or the page is out of range. Exists so tests can fabricate
  // states the protocol never produces (two writers, dangling clock site)
  // and prove the matching InvariantChecker clause fires.
  bool TestOnlySetDirectory(mmem::SegmentId seg, mmem::PageNum page, const DirectoryView& v);
  // Plants a zero-filled standby replica record at this site (an "orphan"
  // when no directory lists this site in the page's replica set).
  void TestOnlyInjectReplica(mmem::SegmentId seg, mmem::PageNum page, std::uint64_t version,
                             std::uint32_t epoch);

 private:
  // The world's fault state, one table owned by the network.
  const mnet::Liveness& live() const { return kernel_->net()->liveness(); }

  struct SegDir {
    std::vector<DirectoryView> pages;
  };
  // Per-page local wait state for faulting processes.
  struct PageWait {
    bool pending_read = false;
    bool pending_write = false;
    // Sticky "the library says this page is lost" flag: set by
    // kRequestFailed, cleared by a successful install/upgrade. While set,
    // faults fail immediately with kPageLost.
    bool failed = false;
    mos::Channel chan;
  };
  // Which protocol wait an AckSet belongs to. With (seg, id) it keys acks_.
  enum class AckRole : std::uint8_t {
    kInstall,     // library: install, upgrade and promotion acks (id = req_id)
    kInvalidate,  // clock site: invalidate acks before a write grant (id = req_id)
    kReplicate,   // committing site: standby acks for a write quorum (id = req_id)
    kRecovery,    // reconstructing library: copy-state replies (id = epoch)
  };
  enum class AckWaitResult { kComplete, kWaitReply, kStale, kFailed };
  using AckKey = std::tuple<AckRole, mmem::SegmentId, std::uint64_t>;
  // One registered ack wait: an AckSet plus what the engine needs to route
  // acks to it and steer its waiter. Constructing one enters it in acks_;
  // destroying it takes it out again, on every exit path.
  struct AckWait {
    AckWait(Engine* e, AckRole r, mmem::SegmentId s, std::uint64_t id,
            msim::Time deadline);
    ~AckWait();
    AckWait(const AckWait&) = delete;
    AckWait& operator=(const AckWait&) = delete;

    const AckRole role;
    const mmem::SegmentId seg;
    AckSet acks;
    mos::Channel chan;
    // kInvalidate, kReplicate: the op's epoch; the wait aborts once fenced.
    std::uint32_t epoch = 0;
    // kInstall: the clock site driving the op. If it is gone before any ack
    // arrives the op can never run, so the wait fails fast.
    mnet::SiteId clock_site = mnet::kNoSite;
    // kInstall: the clock site refused with a kWaitReply (§6.1).
    bool wait_reply = false;
    msim::Duration wait_remaining_us = 0;
    // kRecovery: where replies land; the map belongs to the waiter.
    std::map<mnet::SiteId, std::vector<PageCopyState>>* replies = nullptr;
    Engine* engine;  // null once detached by a reboot or engine teardown
    const AckKey key;
  };
  // One queued reconstruction: a successor takeover (election) or an
  // in-place rebuild at a surviving library whose clock site died.
  struct RecoveryItem {
    mmem::SegmentId seg = -1;
    bool elected = false;
  };
  struct Request {
    PageRequestBody body;
    msim::Time queued_at = 0;
    // Local-only: a membership-change re-spread (kReplicateOnly clock op)
    // rather than an application page request. Never crosses the wire.
    bool respread = false;
  };
  // One site's cold-standby copy of a page's last committed version.
  struct ReplicaCopy {
    mmem::PageBytes data;
    std::uint64_t version = 0;
    std::uint32_t epoch = 0;
  };

  static std::uint64_t WaitKey(mmem::SegmentId seg, mmem::PageNum page) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(seg)) << 32) |
           static_cast<std::uint32_t>(page);
  }

  // Protocol processes.
  msim::Task<> LibraryMain(mos::Process* self);
  msim::Task<> WorkerMain(mos::Process* self);
  msim::Task<> RecoveryMain(mos::Process* self);
  // Transient process spawned by Rejoin(): the announce half of the
  // re-admission handshake.
  msim::Task<> RejoinMain(mos::Process* self);
  msim::Task<> HandlePacket(mos::Process* self, mnet::Packet pkt);

  // Sends `body` to site `to`. Its kind and wire size come from the body
  // type (protocol.h); the send charges the transmit time to `self`.
  template <typename Body>
  msim::Task<> Send(mos::Process* self, mnet::SiteId to, Body body) {
    return kernel_->Send(self, mnet::MakePacket(site(), to, static_cast<std::uint32_t>(Body::kKind),
                                                kWireBytes<Body>, std::move(body)));
  }
  // The receive side of Send: decodes `pkt` as a Body, throwing
  // std::logic_error when the packet is of another kind.
  template <typename Body>
  static const Body& Decode(const mnet::Packet& pkt);
  // Decode plus the epoch fence: null when the message predates this site's
  // epoch for its segment (StaleEpoch drops and counts it).
  template <typename Body>
  const Body* Fenced(const mnet::Packet& pkt);

  // The failure deadline of an op starting now (0 = none), from
  // ProtocolOptions::op_timeout_us.
  msim::Time OpDeadline() const {
    return opts_.op_timeout_us > 0 ? kernel_->Now() + opts_.op_timeout_us : 0;
  }

  // Library-side request processing. The bool-returning stages report
  // success; on failure the caller marks the page lost and notifies the
  // waiting requesters (the failure model's consistency-over-availability
  // choice: never grant a page whose freshest copy may be unreachable).
  msim::Task<> ProcessRequest(mos::Process* self, Request req);
  msim::Task<bool> GrantFromEmpty(mos::Process* self, DirectoryView& pd, const Request& req,
                                  mmem::SiteMask batch, std::uint64_t req_id,
                                  msim::Duration window_us, msim::Time op_deadline);
  msim::Task<bool> IssueClockOp(mos::Process* self, mnet::SiteId clock_site, ClockOpBody op,
                                msim::Time op_deadline);
  // Executes an accepted clock-site operation (runs in the worker, or inline
  // in the library process when the clock site is colocated). Returns false
  // when the op was abandoned (ack/op deadline expired).
  msim::Task<bool> ExecuteClockOp(mos::Process* self, ClockOpBody op);
  // The one ack wait loop: sleeps on `w` until its AckSet completes or
  // fails, a kWaitReply arrives, or its epoch is fenced, forgiving the acks
  // of gone sites on every pass (partitioned sites are not gone: they may
  // still hold a live copy — consistency over availability).
  msim::Task<AckWaitResult> AwaitAcks(mos::Process* self, AckWait& w);
  // Credits one ack to the wait registered under (role, seg, id) and wakes
  // its waiter. Returns the wait, or nullptr when none is registered.
  AckWait* CreditAck(AckRole role, mmem::SegmentId seg, std::uint64_t id, mnet::SiteId from);
  AckWait* FindAckWait(AckRole role, mmem::SegmentId seg, std::uint64_t id);
  // Acks an install, upgrade, promotion or re-spread (`grant` names the
  // page, request, library and epoch) to the library: a local credit when
  // the library is this site, a kInstallAck otherwise.
  template <typename Grant>
  msim::Task<> AckInstall(mos::Process* self, const Grant& grant);
  // Unregisters every ack wait on reboot or teardown: their coroutines never
  // run again, and their frames may be destroyed after acks_ is gone.
  void DetachAckWaits();
  // Tells every waiting requester the operation failed (kRequestFailed).
  msim::Task<> NotifyRequestFailed(mos::Process* self, mmem::SegmentId seg, mmem::PageNum page,
                                   std::uint64_t req_id, mmem::SiteMask requesters);

  // ---- Replication (quorum commit / standby store / promotion) ----
  // Library: the replica placement for a segment — the opts_.replicas lowest
  // live sites among (attached sites ∪ this library). May return fewer than
  // k sites when membership has shrunk (the quorum shrinks with it).
  mmem::SiteMask ChooseReplicaSet(mmem::SegmentId seg) const;
  // Commit point: ship `data` at `version` to every site in `replicate_set`
  // and wait for a write quorum of ceil((k_eff+1)/2) acks, forgiving sites
  // that crash mid-wait. Returns false if the quorum cannot be met before
  // `op_deadline` (0 = wait forever).
  msim::Task<bool> ReplicateAndWait(mos::Process* self, mmem::SegmentId seg, mmem::PageNum page,
                                    std::uint64_t req_id, std::uint64_t version,
                                    std::uint32_t epoch, mmem::SiteMask replicate_set,
                                    const mmem::PageBytes& data, msim::Time op_deadline);
  // Receive side: store / refresh the standby copy (kReplicate).
  void ApplyReplicate(const ReplicateBody& body);
  // Receive side: install this site's standby copy as a live read-only
  // primary (kPromoteReplica), then ack the library with kInstallAck.
  void ApplyPromoteReplica(const PromoteReplicaBody& body);

  // Receive-side helpers.
  void EnqueueLibraryRequest(const PageRequestBody& body);
  void ApplyInstall(const PageInstallBody& body);
  void ApplyUpgrade(const UpgradeGrantBody& body);
  void ApplyInvalidate(const InvalidatePageBody& body);
  void ApplyRequestFailed(const RequestFailedBody& body);

  // ---- Library-site failover (election / epoch fencing / reconstruction) ----
  // True when a message stamped `epoch` predates this site's known epoch
  // for the segment; such messages are fenced (dropped and counted).
  bool StaleEpoch(mmem::SegmentId seg, std::uint32_t epoch);
  // Raises the known epoch; on a raise, clears every pending request flag
  // for the segment and wakes the waiters so they re-target the new library.
  void AdoptEpoch(mmem::SegmentId seg, std::uint32_t epoch);
  // Claims the library role (election) or bumps the epoch in place, then
  // queues the reconstruction. Idempotent while a recovery is pending.
  void StartRecovery(mmem::SegmentId seg, bool elected);
  // Election backstop for sites that attached after the crash notification.
  void MaybeElect(mmem::SegmentId seg);
  // The reconstruction procedure run by RecoveryMain.
  msim::Task<> RecoverSegment(mos::Process* self, RecoveryItem item);
  // Local copy-state answer to a kRecoveryQuery (also used for self).
  std::vector<PageCopyState> LocalCopyState(mmem::SegmentId seg, int page_count) const;

  bool SegmentQuiescent(mmem::SegmentId seg) const;
  void MaybeReap(mmem::SegmentId seg);
  void ReallyDrop(mmem::SegmentId seg);
  // The clock check (§6.1): how much of the page's window Delta must still
  // run before this clock site honors `op`, or 0 when it may run now.
  msim::Duration WindowLeft(const ClockOpBody& op) const;
  mmem::SegmentImage& ImageRef(mmem::SegmentId seg);
  PageWait& WaitFor(mmem::SegmentId seg, mmem::PageNum page);
  // Records a protocol trace event. `detail` returns its text and is called
  // only while tracing is on, so a run with tracing off builds no strings.
  template <typename DetailFn>
  void Trace(const char* category, DetailFn detail) {
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->Record(kernel_->Now(), site(), category, detail());
    }
  }

  mos::Kernel* kernel_;
  SegmentRegistry* registry_;
  ProtocolOptions opts_;
  mtrace::Tracer* tracer_;

  // Per-segment tables are FlatMaps (sorted vectors): the population is a
  // handful of segments, and these are consulted on every fault and message.
  // SegDir lives behind a unique_ptr so directory entry references held across
  // coroutine suspensions stay valid when the table grows.
  msim::FlatMap<mmem::SegmentId, std::unique_ptr<mmem::SegmentImage>> images_;
  msim::FlatMap<mmem::SegmentId, std::unique_ptr<SegDir>> dirs_;
  msim::FlatMap<std::uint64_t, std::unique_ptr<PageWait>> waits_;

  // Appends to the library queue and feeds the load counters
  // (lib_enqueues / peak / depth_sum), so each arrival is seen exactly once.
  void PushLibRequest(Request r) {
    lib_queue_.push_back(std::move(r));
    ++stats_.lib_enqueues;
    const std::uint64_t depth = lib_queue_.size();
    stats_.lib_queue_depth_sum += depth;
    if (depth > stats_.lib_queue_peak) stats_.lib_queue_peak = depth;
  }
  // Queues a membership-change re-spread, stamped `epoch`, for every granted
  // page of `seg` that is not lost and that `needs` picks, and wakes the
  // library if it queued any.
  template <typename Pred>
  void QueueRespreads(mmem::SegmentId seg, std::uint32_t epoch, Pred needs);

  std::deque<Request> lib_queue_;
  mos::Channel lib_chan_;
  std::vector<mos::Process*> lib_procs_;
  // Pages with an operation in flight.
  std::set<std::uint64_t> busy_pages_;
  // Destroy-while-busy protection: segments with in-flight library/worker
  // operations are reaped only once those operations drain.
  std::set<mmem::SegmentId> dying_segments_;
  msim::FlatMap<mmem::SegmentId, int> active_ops_;
  std::uint64_t next_req_id_ = 1;

  std::deque<ClockOpBody> worker_queue_;
  mos::Channel worker_chan_;
  mos::Process* worker_proc_ = nullptr;
  // Every ack wait in flight at this site, in every role. The key carries
  // the segment because request ids are unique only within one library's
  // counter, and a clock site can execute ops for several libraries (or a
  // rejoined library restarting its counter) concurrently.
  std::map<AckKey, AckWait*> acks_;

  // ---- Replication state (empty unless replicas >= 2) ----
  // Standby copies held at this site, keyed by WaitKey(seg, page). Never in
  // the SegmentImage: a replica is not a readable copy and must stay
  // invisible to the directory invariants until promoted.
  msim::FlatMap<std::uint64_t, ReplicaCopy> replicas_;

  // ---- Failover state ----
  // Highest epoch seen per segment (all roles); messages below it are fenced.
  msim::FlatMap<mmem::SegmentId, std::uint32_t> seg_epochs_;
  // Segments this site is currently reconstructing (it is their library).
  std::set<mmem::SegmentId> recovering_;
  std::deque<RecoveryItem> recovery_queue_;
  mos::Channel recovery_chan_;
  mos::Process* recovery_proc_ = nullptr;

  RequestLog log_;
  EngineStats stats_;
  mtrace::LatencyHistogram read_fault_latency_;
  mtrace::LatencyHistogram write_fault_latency_;
};

}  // namespace mirage

#endif  // SRC_MIRAGE_ENGINE_H_
