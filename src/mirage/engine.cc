#include "src/mirage/engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace mirage {

namespace {

using mmem::ForEachSite;

// Library service processes when ProtocolOptions::parallel_page_ops is on.
constexpr int kParallelLibraryProcesses = 4;

mnet::SiteId FirstSite(const mmem::SiteMask& mask) {
  int s = mmem::MaskLowest(mask);
  return s < 0 ? mnet::kNoSite : static_cast<mnet::SiteId>(s);
}

}  // namespace

// Every field is a std::uint64_t: a new one must be totalled below too.
static_assert(sizeof(EngineStats) == 37 * sizeof(std::uint64_t),
              "EngineStats::operator+= must total every field");

EngineStats& EngineStats::operator+=(const EngineStats& o) {
  read_faults += o.read_faults;
  write_faults += o.write_faults;
  remote_requests_sent += o.remote_requests_sent;
  local_requests += o.local_requests;
  requests_processed += o.requests_processed;
  read_batches += o.read_batches;
  batched_extra_reads += o.batched_extra_reads;
  pages_installed += o.pages_installed;
  upgrades_received += o.upgrades_received;
  downgrades_performed += o.downgrades_performed;
  local_invalidations += o.local_invalidations;
  wait_replies_sent += o.wait_replies_sent;
  invalidation_retries += o.invalidation_retries;
  queued_invalidations += o.queued_invalidations;
  request_timeouts += o.request_timeouts;
  faults_failed += o.faults_failed;
  degraded_acks += o.degraded_acks;
  degraded_invalidations += o.degraded_invalidations;
  ops_failed += o.ops_failed;
  fail_notices_sent += o.fail_notices_sent;
  fail_notices_received += o.fail_notices_received;
  elections_won += o.elections_won;
  recoveries_completed += o.recoveries_completed;
  pages_recovered += o.pages_recovered;
  pages_lost_in_recovery += o.pages_lost_in_recovery;
  recovery_replies_sent += o.recovery_replies_sent;
  stale_epoch_drops += o.stale_epoch_drops;
  replica_writes += o.replica_writes;
  quorum_waits += o.quorum_waits;
  degraded_reads += o.degraded_reads;
  replica_respreads += o.replica_respreads;
  rejoins += o.rejoins;
  rejoin_welcomes += o.rejoin_welcomes;
  pages_resurrected += o.pages_resurrected;
  lib_enqueues += o.lib_enqueues;
  lib_queue_depth_sum += o.lib_queue_depth_sum;
  lib_queue_peak = std::max(lib_queue_peak, o.lib_queue_peak);
  return *this;
}

const char* MsgKindName(MsgKind k) {
  switch (k) {
    case MsgKind::kPageRequest:
      return "PAGE_REQUEST";
    case MsgKind::kClockOp:
      return "CLOCK_OP";
    case MsgKind::kWaitReply:
      return "WAIT_REPLY";
    case MsgKind::kInvalidatePage:
      return "INVALIDATE";
    case MsgKind::kInvalidateAck:
      return "INVALIDATE_ACK";
    case MsgKind::kPageInstall:
      return "PAGE_INSTALL";
    case MsgKind::kUpgradeGrant:
      return "UPGRADE_GRANT";
    case MsgKind::kInstallAck:
      return "INSTALL_ACK";
    case MsgKind::kRequestFailed:
      return "REQUEST_FAILED";
    case MsgKind::kRecoveryQuery:
      return "RECOVERY_QUERY";
    case MsgKind::kRecoveryReply:
      return "RECOVERY_REPLY";
    case MsgKind::kReplicate:
      return "REPLICATE";
    case MsgKind::kReplicateAck:
      return "REPLICATE_ACK";
    case MsgKind::kPromoteReplica:
      return "PROMOTE_REPLICA";
    case MsgKind::kRejoinAnnounce:
      return "REJOIN_ANNOUNCE";
    case MsgKind::kRejoinWelcome:
      return "REJOIN_WELCOME";
  }
  return "UNKNOWN";
}

const char* ClockActionName(ClockAction a) {
  switch (a) {
    case ClockAction::kSendCopy:
      return "SEND_COPY";
    case ClockAction::kInvalidateForWriter:
      return "INVALIDATE_FOR_WRITER";
    case ClockAction::kUpgradeWriter:
      return "UPGRADE_WRITER";
    case ClockAction::kDowngradeForReaders:
      return "DOWNGRADE_FOR_READERS";
    case ClockAction::kInvalidateForReaders:
      return "INVALIDATE_FOR_READERS";
    case ClockAction::kReplicateOnly:
      return "REPLICATE_ONLY";
  }
  return "UNKNOWN";
}

const char* PageModeName(PageMode m) {
  switch (m) {
    case PageMode::kEmpty:
      return "empty";
    case PageMode::kReaders:
      return "readers";
    case PageMode::kWriter:
      return "writer";
  }
  return "?";
}

Engine::Engine(mos::Kernel* kernel, SegmentRegistry* registry, ProtocolOptions opts,
               mtrace::Tracer* tracer)
    : kernel_(kernel), registry_(registry), opts_(std::move(opts)), tracer_(tracer) {}

Engine::~Engine() { DetachAckWaits(); }

void Engine::Start() {
  kernel_->SetPacketHandler(
      [this](mos::Process* self, mnet::Packet pkt) { return HandlePacket(self, std::move(pkt)); });
  const int lib_count = opts_.parallel_page_ops ? kParallelLibraryProcesses : 1;
  for (int i = 0; i < lib_count; ++i) {
    lib_procs_.push_back(kernel_->Spawn("dsm-library-" + std::to_string(i),
                                        mos::Priority::kKernel,
                                        [this](mos::Process* self) { return LibraryMain(self); }));
  }
  worker_proc_ = kernel_->Spawn("dsm-worker", mos::Priority::kKernel,
                                [this](mos::Process* self) { return WorkerMain(self); });
  recovery_proc_ = kernel_->Spawn("dsm-recovery", mos::Priority::kKernel,
                                 [this](mos::Process* self) { return RecoveryMain(self); });
}

mmem::SegmentImage* Engine::EnsureImage(const mmem::SegmentMeta& meta) {
  auto it = images_.find(meta.id);
  if (it != images_.end()) {
    return it->second.get();
  }
  auto image = std::make_unique<mmem::SegmentImage>(meta, site());
  mmem::SegmentImage* raw = image.get();
  images_[meta.id] = std::move(image);
  // A rejoined library may already have reconstructed a directory before the
  // first local attach re-creates the image — never clobber it.
  if (meta.library_site == site() && dirs_.count(meta.id) == 0) {
    auto dir = std::make_unique<SegDir>();
    dir->pages.assign(meta.PageCount(), DirectoryView{.window_us = opts_.default_window_us});
    dirs_[meta.id] = std::move(dir);
  }
  return raw;
}

void Engine::DropSegment(mmem::SegmentId seg) {
  if (!SegmentQuiescent(seg)) {
    // Library or worker operations are still in flight (e.g. the final
    // install acknowledgement): defer the reap until they drain, so no
    // coroutine's reference into this segment's state dangles.
    dying_segments_.insert(seg);
    return;
  }
  ReallyDrop(seg);
}

bool Engine::SegmentQuiescent(mmem::SegmentId seg) const {
  auto it = active_ops_.find(seg);
  if (it != active_ops_.end() && it->second > 0) {
    return false;
  }
  for (const Request& r : lib_queue_) {
    if (r.body.seg == seg) {
      return false;
    }
  }
  for (const ClockOpBody& op : worker_queue_) {
    if (op.seg == seg) {
      return false;
    }
  }
  return true;
}

void Engine::MaybeReap(mmem::SegmentId seg) {
  if (dying_segments_.count(seg) != 0 && SegmentQuiescent(seg)) {
    ReallyDrop(seg);
  }
}

void Engine::ReallyDrop(mmem::SegmentId seg) {
  dying_segments_.erase(seg);
  active_ops_.erase(seg);
  images_.erase(seg);
  dirs_.erase(seg);
  seg_epochs_.erase(seg);
  recovering_.erase(seg);
  for (auto it = waits_.begin(); it != waits_.end();) {
    if (static_cast<mmem::SegmentId>(it->first >> 32) == seg) {
      it = waits_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = replicas_.begin(); it != replicas_.end();) {
    if (static_cast<mmem::SegmentId>(it->first >> 32) == seg) {
      it = replicas_.erase(it);
    } else {
      ++it;
    }
  }
}

// ------------------------------------------------------------- fault path --

msim::Task<mmem::FaultStatus> Engine::Fault(mos::Process* p, mmem::SegmentId seg,
                                            mmem::PageNum page, bool write) {
  if (write) {
    ++stats_.write_faults;
  } else {
    ++stats_.read_faults;
  }
  Trace("fault", [&] {
    return (write ? "write fault seg " : "read fault seg ") + std::to_string(seg) + " page " +
           std::to_string(page) + " pid " + std::to_string(p->pid);
  });
  if (!registry_->FindById(seg).has_value()) {
    throw std::logic_error("mirage: fault on unknown segment " + std::to_string(seg));
  }
  mmem::SegmentImage& img = ImageRef(seg);
  PageWait& w = WaitFor(seg, page);
  const msim::Time fault_start = kernel_->Now();
  // Recovery policy: re-send an unanswered request after request_timeout_us,
  // doubling the wait each attempt. The library deduplicates re-sent
  // requests (an already-satisfied request is dropped), so a response that
  // was merely slow is harmless. wait == 0 preserves the paper's
  // wait-forever behavior.
  msim::Duration wait = opts_.request_timeout_us;
  int attempts = 0;
  msim::Time deadline = 0;
  for (;;) {
    if (img.Present(page) && (!write || img.Writable(page))) {
      msim::Duration latency = kernel_->Now() - fault_start;
      if (write) {
        write_fault_latency_.Record(latency);
      } else {
        read_fault_latency_.Record(latency);
      }
      co_return mmem::FaultStatus::kOk;
    }
    if (w.failed) {
      // The library declared the page lost. Fail the fault; the flag stays
      // set (only a successful install clears it) so later faults fail fast.
      ++stats_.faults_failed;
      Trace("failure", [&] { return "fault failed: page " + std::to_string(page) + " lost"; });
      co_return mmem::FaultStatus::kPageLost;
    }
    bool& pending = write ? w.pending_write : w.pending_read;
    if (!pending) {
      // Re-read the segment meta every (re-)send: a failover election may
      // have re-homed the library and bumped the epoch since the last try.
      auto meta = registry_->FindById(seg);
      if (!meta.has_value()) {
        throw std::logic_error("mirage: fault on unknown segment " + std::to_string(seg));
      }
      AdoptEpoch(seg, meta->epoch);
      pending = true;
      ++attempts;
      const PageRequestBody body{seg, page, write, site(), p->pid, meta->epoch};
      if (meta->library_site == site()) {
        // Colocated library: no network message, just the local service cost
        // (the paper's 1.5 ms local fault service).
        ++stats_.local_requests;
        co_await kernel_->Compute(p, kernel_->costs().local_fault_cpu_us);
        EnqueueLibraryRequest(body);
      } else {
        ++stats_.remote_requests_sent;
        co_await kernel_->Compute(p, kernel_->costs().fault_request_cpu_us);
        co_await Send(p, meta->library_site, body);
      }
      deadline = kernel_->Now() + wait;
      // Time passed inside the Compute/Send awaits above: the answer (or a
      // colocated requester's install) may already have arrived, and its
      // wakeup found nobody on the channel. Re-check before sleeping or the
      // wakeup is lost and a wait-forever fault hangs.
      continue;
    }
    if (wait <= 0) {
      co_await kernel_->SleepOn(p, w.chan);
      continue;
    }
    msim::Duration remaining = deadline - kernel_->Now();
    if (remaining <= 0) {
      ++stats_.request_timeouts;
      // Backstop election: if the library died before this site attached
      // (so it missed the crash notification), the timeout path is where
      // the orphaned segment is noticed.
      MaybeElect(seg);
      if (attempts >= std::max(1, opts_.max_request_attempts)) {
        pending = false;
        ++stats_.faults_failed;
        Trace("failure", [&] {
          return "fault timed out: page " + std::to_string(page) + " after " +
                 std::to_string(attempts) + " attempts";
        });
        co_return mmem::FaultStatus::kTimedOut;
      }
      Trace("recovery", [&] {
        return "request timeout, re-sending (attempt " + std::to_string(attempts + 1) + ") page " +
               std::to_string(page);
      });
      pending = false;  // force a re-send on the next loop iteration
      wait *= 2;        // exponential backoff
      continue;
    }
    co_await kernel_->SleepOnFor(p, w.chan, remaining);
  }
}

// --------------------------------------------------------------- receive  --

template <typename Body>
const Body& Engine::Decode(const mnet::Packet& pkt) {
  if (pkt.type != static_cast<std::uint32_t>(Body::kKind)) {
    throw std::logic_error(std::string("mirage: ") + MsgKindName(static_cast<MsgKind>(pkt.type)) +
                           " packet decoded as " + MsgKindName(Body::kKind));
  }
  return mnet::PacketBody<Body>(pkt);
}

template <typename Body>
const Body* Engine::Fenced(const mnet::Packet& pkt) {
  const Body& b = Decode<Body>(pkt);
  return StaleEpoch(b.seg, b.epoch) ? nullptr : &b;
}

msim::Task<> Engine::HandlePacket(mos::Process* self, mnet::Packet pkt) {
  switch (static_cast<MsgKind>(pkt.type)) {
    case MsgKind::kPageRequest:
      // Fenced in EnqueueLibraryRequest, which colocated requests share.
      EnqueueLibraryRequest(Decode<PageRequestBody>(pkt));
      break;
    case MsgKind::kClockOp: {
      const auto* b = Fenced<ClockOpBody>(pkt);
      if (b == nullptr) {
        break;
      }
      if (const msim::Duration remaining = WindowLeft(*b); remaining > 0) {
        if (opts_.queued_invalidation) {
          // Hold the invalidation and execute it at window expiry — the
          // optimization the paper names but did not implement.
          ++stats_.queued_invalidations;
          Trace("clock", [&] {
            return "queued invalidation, " + std::to_string(remaining) + " us left";
          });
          kernel_->sim()->Schedule(remaining, static_cast<msim::EventDomain>(site()),
                                   [this, op = *b] {
            worker_queue_.push_back(op);
            kernel_->Wakeup(worker_chan_);
          });
        } else {
          ++stats_.wait_replies_sent;
          Trace("clock", [&] {
            return "refuse invalidation, " + std::to_string(remaining) + " us left";
          });
          co_await Send(self, pkt.src,
                        WaitReplyBody{b->seg, b->page, b->req_id, remaining, b->epoch});
        }
        break;
      }
      worker_queue_.push_back(*b);
      kernel_->Wakeup(worker_chan_);
      break;
    }
    case MsgKind::kWaitReply:
      if (const auto* b = Fenced<WaitReplyBody>(pkt)) {
        if (AckWait* w = FindAckWait(AckRole::kInstall, b->seg, b->req_id)) {
          w->wait_reply = true;
          w->wait_remaining_us = b->remaining_us;
          kernel_->Wakeup(w->chan);
        }
      }
      break;
    case MsgKind::kInvalidatePage:
      // Fenced: a pre-crash invalidation must not destroy a copy the
      // reconstructed directory is counting on. No ack either: the stale
      // clock op is fenced everywhere and abandons itself.
      if (const auto* b = Fenced<InvalidatePageBody>(pkt)) {
        ApplyInvalidate(*b);
        co_await Send(self, pkt.src,
                      InvalidateAckBody{b->seg, b->page, b->req_id, site(), b->epoch});
      }
      break;
    case MsgKind::kInvalidateAck:
      // Fenced: a pre-crash ack must not credit a successor's op (request
      // ids restart at the new library, so collisions are possible).
      if (const auto* b = Fenced<InvalidateAckBody>(pkt)) {
        CreditAck(AckRole::kInvalidate, b->seg, b->req_id, b->from);
      }
      break;
    case MsgKind::kPageInstall:
      if (const auto* b = Fenced<PageInstallBody>(pkt)) {
        AdoptEpoch(b->seg, b->epoch);
        ApplyInstall(*b);
        co_await AckInstall(self, *b);
      }
      break;
    case MsgKind::kUpgradeGrant:
      if (const auto* b = Fenced<UpgradeGrantBody>(pkt)) {
        AdoptEpoch(b->seg, b->epoch);
        ApplyUpgrade(*b);
        co_await AckInstall(self, *b);
      }
      break;
    case MsgKind::kInstallAck:
      if (const auto* b = Fenced<InstallAckBody>(pkt)) {
        CreditAck(AckRole::kInstall, b->seg, b->req_id, b->from);
      }
      break;
    case MsgKind::kRequestFailed:
      if (const auto* b = Fenced<RequestFailedBody>(pkt)) {
        AdoptEpoch(b->seg, b->epoch);
        ApplyRequestFailed(*b);
      }
      break;
    case MsgKind::kRecoveryQuery: {
      const auto* b = Fenced<RecoveryQueryBody>(pkt);
      if (b == nullptr) {
        break;
      }
      // Adopting the epoch fences all pre-crash traffic and re-targets this
      // site's outstanding requests at the successor library.
      AdoptEpoch(b->seg, b->epoch);
      auto meta = registry_->FindById(b->seg);
      if (!meta.has_value()) {
        break;  // destroyed while the query was in flight
      }
      ++stats_.recovery_replies_sent;
      Trace("recovery", [&] {
        return "answer recovery query for seg " + std::to_string(b->seg) + " epoch " +
               std::to_string(b->epoch);
      });
      // A named body, not a temporary inside the co_await: g++ 12 destroys
      // such an aggregate temporary twice when a member owns memory.
      RecoveryReplyBody reply{b->seg, b->epoch, site(), LocalCopyState(b->seg, meta->PageCount())};
      co_await Send(self, b->new_library, std::move(reply));
      break;
    }
    case MsgKind::kRecoveryReply: {
      const auto& b = Decode<RecoveryReplyBody>(pkt);
      AckWait* w = CreditAck(AckRole::kRecovery, b.seg, b.epoch, b.from);
      if (w == nullptr) {
        (void)StaleEpoch(b.seg, b.epoch);  // count pre-crash stragglers
        break;
      }
      (*w->replies)[b.from] = b.pages;
      break;
    }
    case MsgKind::kReplicate:
      // Fenced: a stale replicate must not overwrite a standby the
      // reconstructed directory may promote. No ack: the stale commit is
      // fenced at its origin too and abandons itself.
      if (const auto* b = Fenced<ReplicateBody>(pkt)) {
        ApplyReplicate(*b);
        co_await Send(self, b->from,
                      ReplicateAckBody{b->seg, b->page, b->req_id, b->version, site(), b->epoch});
      }
      break;
    case MsgKind::kReplicateAck:
      // Fenced: a pre-crash ack must not credit a successor's quorum.
      if (const auto* b = Fenced<ReplicateAckBody>(pkt)) {
        CreditAck(AckRole::kReplicate, b->seg, b->req_id, b->from);
      }
      break;
    case MsgKind::kPromoteReplica:
      if (const auto* b = Fenced<PromoteReplicaBody>(pkt)) {
        AdoptEpoch(b->seg, b->epoch);
        ApplyPromoteReplica(*b);
        co_await AckInstall(self, *b);
      }
      break;
    case MsgKind::kRejoinAnnounce: {
      // Fenced: the announce raced a failover; the rejoiner re-reads the
      // registry.
      const auto* announce = Fenced<RejoinAnnounceBody>(pkt);
      if (announce == nullptr) {
        break;
      }
      const RejoinAnnounceBody& b = *announce;
      auto dit = dirs_.find(b.seg);
      if (dit == dirs_.end() && recovering_.count(b.seg) == 0) {
        break;  // not this site's segment (destroyed, or the registry moved on)
      }
      ++stats_.rejoin_welcomes;
      Trace("rejoin", [&] {
        return "re-admit site " + std::to_string(b.from) + " to seg " + std::to_string(b.seg);
      });
      if (dit != dirs_.end()) {
        // Purge queued requests from the dead incarnation. They were issued
        // before the crash (liveness checks kept them from being served
        // during the outage), and serving one now would grant a page to the
        // amnesiac reboot — which never asked for it and has no process left
        // to consume it, so the grant starves and eventually condemns the
        // page. The new incarnation re-faults with fresh requests after this
        // announce, so dropping is always safe.
        for (auto qit = lib_queue_.begin(); qit != lib_queue_.end();) {
          if (!qit->respread && qit->body.seg == b.seg && qit->body.requester == b.from) {
            Trace("rejoin", [&] {
              return "drop pre-crash request from site " + std::to_string(b.from) + " page " +
                     std::to_string(qit->body.page);
            });
            qit = lib_queue_.erase(qit);
          } else {
            ++qit;
          }
        }
        bool any_lost = false;
        bool needs_rebuild = false;
        for (DirectoryView& pd : dit->second->pages) {
          // Scrub pre-crash membership: the rejoiner reboots with amnesia, so
          // any copy the directory still attributes to it is gone. (Pages
          // whose writer or clock site crashed were already rebuilt at crash
          // time, so only plain reader entries can linger.)
          if (pd.mode == PageMode::kReaders && pd.clock_site != b.from) {
            pd.readers &= ~mmem::MaskOf(b.from);
          }
          // Its standby copies died with it too: un-credit them so replica
          // coverage is honest and the re-spread below sees the degradation
          // (a page quiescent across the outage otherwise keeps a set that
          // still names the rejoiner, masking the lost copy).
          pd.replica_set &= ~mmem::MaskOf(b.from);
          if (pd.lost) {
            any_lost = true;
          } else if (pd.mode != PageMode::kEmpty && pd.clock_site == b.from) {
            // The authoritative copy (writer or clock site) died with the
            // rejoiner, and no survivor has touched the page since — the
            // timeout path never fired, so the directory still points at the
            // amnesiac site. Rebuild now: reconstruction promotes the
            // freshest surviving standby and re-homes the clock.
            needs_rebuild = true;
          }
        }
        if ((any_lost || needs_rebuild) && recovering_.count(b.seg) == 0) {
          // Condemned pages may be resurrectable now that the membership
          // changed, and pages homed at the rejoiner need a new clock site:
          // both are reconstruction's job — re-query the survivors and
          // rebuild. (The rebuild also re-spreads every page, so no separate
          // re-spread pass is queued.)
          Trace("rejoin", [&] {
            return std::string(any_lost ? "condemned" : "orphaned") + " page(s) on seg " +
                   std::to_string(b.seg) + "; reconstructing";
          });
          StartRecovery(b.seg, /*elected=*/false);
        } else if (opts_.replicas >= 2) {
          // Pull the rejoined site back into the k-standby set: a page needs
          // a re-spread if its (just-scrubbed) set differs from the refreshed
          // choice — membership changed under it, or the scrub above removed
          // the rejoiner's died-with-it standby.
          const mmem::SiteMask rset = ChooseReplicaSet(b.seg);
          QueueRespreads(b.seg, KnownEpoch(b.seg),
                         [rset](const DirectoryView& pd) { return pd.replica_set != rset; });
        }
      }
      co_await Send(self, b.from, RejoinWelcomeBody{b.seg, KnownEpoch(b.seg), site()});
      break;
    }
    case MsgKind::kRejoinWelcome: {
      const auto& b = Decode<RejoinWelcomeBody>(pkt);
      // The re-admission fence: from here on this site acts only under the
      // current epoch. (The reboot erased all pre-crash state; adopting the
      // epoch additionally fences any stale in-flight message that slipped
      // in before the welcome.)
      AdoptEpoch(b.seg, b.epoch);
      break;
    }
  }
}

void Engine::EnqueueLibraryRequest(const PageRequestBody& body) {
  if (StaleEpoch(body.seg, body.epoch)) {
    return;  // pre-crash request; the requester re-sends with the new epoch
  }
  if (dirs_.count(body.seg) == 0 && recovering_.count(body.seg) == 0) {
    // Segment destroyed while the request was in flight (a recovering
    // segment has no directory yet but will once reconstruction finishes,
    // so its requests queue up rather than drop).
    return;
  }
  if (opts_.enable_request_log) {
    log_.Add(RequestLogEntry{kernel_->Now(), body.seg, body.page, body.write, body.requester,
                             body.pid});
  }
  Trace("request", [&] {
    return std::string(body.write ? "write" : "read") + " request from site " +
           std::to_string(body.requester) + " seg " + std::to_string(body.seg) + " page " +
           std::to_string(body.page);
  });
  PushLibRequest(Request{body, kernel_->Now()});
  kernel_->Wakeup(lib_chan_);
}

void Engine::ApplyInstall(const PageInstallBody& body) {
  auto it = images_.find(body.seg);
  if (it == images_.end()) {
    // Either the segment was destroyed under us, or a grant raced this
    // site's rejoin announce: the library served a pre-crash request before
    // learning of the reboot, and this install may carry the page's only
    // up-to-date copy. The site is still an attached member, so materialise
    // the image rather than ack an install we silently dropped — the next
    // clock op then finds real state here.
    auto meta = registry_->FindById(body.seg);
    if (!meta.has_value()) {
      return;  // destroyed under us
    }
    EnsureImage(*meta);
    it = images_.find(body.seg);
  }
  mmem::SegmentImage& img = *it->second;
  img.InstallPage(body.page, body.data, body.writable, kernel_->Now(), body.window_us);
  mmem::AuxPte& aux = img.aux(body.page);
  aux.reader_mask = body.resulting_readers;
  aux.writer = body.writer_site;
  ++stats_.pages_installed;
  Trace("install", [&] {
    return std::string(body.writable ? "writable" : "read-only") + " install seg " +
           std::to_string(body.seg) + " page " + std::to_string(body.page);
  });
  PageWait& w = WaitFor(body.seg, body.page);
  w.pending_read = false;
  if (body.writable) {
    w.pending_write = false;
  }
  w.failed = false;  // a successful install supersedes an earlier loss report
  kernel_->Wakeup(w.chan);
}

void Engine::ApplyUpgrade(const UpgradeGrantBody& body) {
  auto it = images_.find(body.seg);
  if (it == images_.end()) {
    return;
  }
  mmem::SegmentImage& img = *it->second;
  img.UpgradePage(body.page, kernel_->Now(), body.window_us);
  img.aux(body.page).writer = site();
  img.aux(body.page).reader_mask = 0;
  ++stats_.upgrades_received;
  Trace("upgrade", [&] {
    return "upgrade seg " + std::to_string(body.seg) + " page " + std::to_string(body.page);
  });
  PageWait& w = WaitFor(body.seg, body.page);
  w.pending_read = false;
  w.pending_write = false;
  w.failed = false;
  kernel_->Wakeup(w.chan);
}

void Engine::ApplyInvalidate(const InvalidatePageBody& body) {
  auto it = images_.find(body.seg);
  if (it == images_.end()) {
    return;
  }
  it->second->InvalidatePage(body.page);
  ++stats_.local_invalidations;
  Trace("invalidate", [&] {
    return "invalidate seg " + std::to_string(body.seg) + " page " + std::to_string(body.page);
  });
}

void Engine::ApplyRequestFailed(const RequestFailedBody& body) {
  ++stats_.fail_notices_received;
  Trace("failure", [&] {
    return "library reports page " + std::to_string(body.page) + " of seg " +
           std::to_string(body.seg) + " lost";
  });
  PageWait& w = WaitFor(body.seg, body.page);
  w.failed = true;
  w.pending_read = false;
  w.pending_write = false;
  kernel_->Wakeup(w.chan);
}

// --------------------------------------------------------------- library  --

msim::Task<> Engine::LibraryMain(mos::Process* self) {
  for (;;) {
    // Dispatch the first queued request whose page has no operation in
    // flight. With one library process (the paper's configuration) this is
    // plain FIFO; with parallel_page_ops, independent pages overlap while
    // each page stays strictly ordered.
    auto it = lib_queue_.begin();
    while (it != lib_queue_.end() &&
           (busy_pages_.count(WaitKey(it->body.seg, it->body.page)) != 0 ||
            recovering_.count(it->body.seg) != 0)) {
      ++it;
    }
    if (it == lib_queue_.end()) {
      co_await kernel_->SleepOn(self, lib_chan_);
      continue;
    }
    Request req = std::move(*it);
    lib_queue_.erase(it);
    const mmem::SegmentId seg = req.body.seg;
    std::uint64_t key = WaitKey(seg, req.body.page);
    busy_pages_.insert(key);
    ++active_ops_[seg];
    co_await ProcessRequest(self, std::move(req));
    --active_ops_[seg];
    busy_pages_.erase(key);
    MaybeReap(seg);
    // Deferred same-page requests (and idle peers) get another look; a
    // reconstruction waiting for this segment to quiesce gets one too.
    kernel_->Wakeup(lib_chan_);
    kernel_->Wakeup(recovery_chan_);
  }
}

msim::Task<> Engine::WorkerMain(mos::Process* self) {
  for (;;) {
    while (worker_queue_.empty()) {
      co_await kernel_->SleepOn(self, worker_chan_);
    }
    ClockOpBody op = std::move(worker_queue_.front());
    worker_queue_.pop_front();
    ++active_ops_[op.seg];
    // An abandoned op needs no action here: the library's op deadline fails
    // the request and marks the page lost.
    (void)co_await ExecuteClockOp(self, op);
    --active_ops_[op.seg];
    MaybeReap(op.seg);
    kernel_->Wakeup(recovery_chan_);
  }
}

msim::Task<> Engine::ProcessRequest(mos::Process* self, Request req) {
  ++stats_.requests_processed;
  co_await kernel_->Compute(self, kernel_->costs().library_processing_cpu_us);
  if (StaleEpoch(req.body.seg, req.body.epoch)) {
    // The epoch moved while the request sat in the queue; the requester
    // re-sends against the reconstructed directory.
    co_return;
  }
  auto dit = dirs_.find(req.body.seg);
  if (dit == dirs_.end()) {
    co_return;
  }
  const mmem::SegmentId seg = req.body.seg;
  const mmem::PageNum page = req.body.page;
  const mnet::SiteId requester = req.body.requester;
  DirectoryView& pd = dit->second->pages.at(page);
  // The base of every clock op this library issues for the page; the
  // re-spread and each Table 1 row set the action and the site sets.
  auto clock_op = [&](std::uint64_t req_id, msim::Duration window_us) {
    return ClockOpBody{.seg = seg,
                       .page = page,
                       .req_id = req_id,
                       .new_window_us = window_us,
                       .library_site = site(),
                       .epoch = KnownEpoch(seg)};
  };

  if (req.respread) {
    // Membership-change re-spread: re-replicate the page's committed
    // contents onto a refreshed standby set. Best-effort — no requester is
    // waiting, so a failure never condemns the page (but a dead clock site
    // still escalates to reconstruction, which re-homes and re-spreads).
    if (opts_.replicas < 2 || pd.lost || pd.mode == PageMode::kEmpty) {
      co_return;
    }
    mmem::SiteMask rset = ChooseReplicaSet(seg);
    if (rset == 0) {
      co_return;
    }
    // Coverage before this re-spread: standbys still alive. Ending with more
    // live standbys than that means a degraded page was restored toward full
    // k membership — resurrected coverage.
    int live_before = 0;
    ForEachSite(pd.replica_set, [&](mnet::SiteId s) {
      if (live().SiteUp(s)) {
        ++live_before;
      }
    });
    ClockOpBody op = clock_op(next_req_id_++, pd.window_us);
    op.action = ClockAction::kReplicateOnly;
    op.resulting_readers = pd.readers;
    op.clock_check = false;
    op.replicate_set = rset;
    op.commit_version = pd.version + 1;
    Trace("replicate", [&] {
      return "re-spread page " + std::to_string(page) + " of seg " + std::to_string(seg) +
             " to mask " + mmem::MaskToString(rset);
    });
    bool rok = co_await IssueClockOp(self, pd.clock_site, op, OpDeadline());
    if (rok) {
      pd.version = op.commit_version;
      pd.replica_set = rset;
      ++stats_.replica_respreads;
      if (mmem::MaskCount(rset) > live_before) {
        ++stats_.pages_resurrected;
      }
    } else if (recovering_.count(seg) == 0 && !StaleEpoch(seg, req.body.epoch) &&
               pd.clock_site != site() && !live().SiteUp(pd.clock_site)) {
      StartRecovery(seg, /*elected=*/false);
    }
    co_return;
  }

  if (pd.lost) {
    // A previous operation on this page failed and its contents are
    // unrecoverable. Refuse immediately — no request for a lost page ever
    // waits or times out.
    co_await NotifyRequestFailed(self, seg, page, 0, mmem::MaskOf(requester));
    co_return;
  }
  if (!live().SiteUp(requester)) {
    // The requester crashed while its request was queued; a grant would be
    // dropped on the wire and the op would stall waiting for its ack.
    co_return;
  }

  // Drop requests already satisfied by an earlier grant (the requesting
  // site's wait state was cleared by the install that satisfied it).
  bool satisfied =
      req.body.write
          ? (pd.mode == PageMode::kWriter && pd.writer == requester)
          : (pd.mode == PageMode::kWriter ? pd.writer == requester
                                          : mmem::MaskHas(pd.readers, requester));
  if (satisfied) {
    co_return;
  }

  std::uint64_t req_id = next_req_id_++;
  msim::Duration window = pd.window_us;
  if (opts_.dynamic_window) {
    window = opts_.dynamic_window(seg, page, window);
  }

  // Read batching: collect every queued read request for this page (§6.1).
  mmem::SiteMask batch = 0;
  if (!req.body.write) {
    batch = mmem::MaskOf(requester);
    for (auto it = lib_queue_.begin(); it != lib_queue_.end();) {
      if (it->body.seg == seg && it->body.page == page && !it->body.write) {
        mnet::SiteId s = it->body.requester;
        bool s_satisfied = pd.mode == PageMode::kWriter ? pd.writer == s
                                                        : mmem::MaskHas(pd.readers, s);
        if (!s_satisfied && !mmem::MaskHas(batch, s)) {
          batch |= mmem::MaskOf(s);
          ++stats_.batched_extra_reads;
        }
        it = lib_queue_.erase(it);
      } else {
        ++it;
      }
    }
    if (mmem::MaskCount(batch) > 1) {
      ++stats_.read_batches;
    }
  }

  Trace("library", [&] {
    return std::string("process ") + (req.body.write ? "write" : "read") + " request site " +
           std::to_string(requester) + " page " + std::to_string(page) + " mode " +
           PageModeName(pd.mode);
  });

  const msim::Time op_deadline = OpDeadline();
  // The clock site driving the op; kNoSite when the library grants directly.
  const mnet::SiteId clock_site = pd.mode == PageMode::kEmpty ? mnet::kNoSite : pd.clock_site;
  // Directory transitions are applied only when the operation succeeds; on
  // failure the page is marked lost and the waiting requesters are told.
  bool ok = true;
  if (pd.mode == PageMode::kEmpty) {
    ok = co_await GrantFromEmpty(self, pd, req, batch, req_id, window, op_deadline);
  } else {
    ClockOpBody op = clock_op(req_id, window);
    if (pd.mode == PageMode::kReaders && !req.body.write) {
      // Table 1 row 1: Readers <- Readers. No clock check, no invalidation;
      // the clock site is informed of the additional readers.
      op.action = ClockAction::kSendCopy;
      op.targets = batch & ~pd.readers;
      op.resulting_readers = pd.readers | batch;
      op.clock_check = false;
    } else if (pd.mode == PageMode::kReaders) {
      // Table 1 row 2: Readers <- Writer. Clock check; invalidate; possible
      // upgrade if the new writer is in the old read set (optimization 1).
      bool upgrade = opts_.upgrade_optimization && mmem::MaskHas(pd.readers, requester);
      op.action = upgrade ? ClockAction::kUpgradeWriter : ClockAction::kInvalidateForWriter;
      op.targets = mmem::MaskOf(requester);
      op.invalidate_set = pd.readers & ~mmem::MaskOf(requester) & ~mmem::MaskOf(pd.clock_site);
    } else if (req.body.write) {
      // Table 1 row 4: Writer <- Writer. Clock check; invalidate (the clock
      // site is the writer, so that is its local action).
      op.action = ClockAction::kInvalidateForWriter;
      op.targets = mmem::MaskOf(requester);
    } else if (opts_.downgrade_optimization) {
      // Table 1 row 3: Writer <- Readers. Clock check; downgrade the writer
      // to reader (optimization 2)...
      op.action = ClockAction::kDowngradeForReaders;
      op.targets = batch & ~mmem::MaskOf(pd.writer);
      op.resulting_readers = batch | mmem::MaskOf(pd.writer);
    } else {
      // ...or invalidate it when optimization 2 is off.
      op.action = ClockAction::kInvalidateForReaders;
      op.targets = batch;
      op.resulting_readers = batch;
    }
    // Replication: every clock op that moves page contents is a commit point —
    // the data-holding site quorum-replicates the captured page before the
    // grant goes out. kSendCopy and kUpgradeWriter move no new contents, so
    // the standing committed version (and its standby set) stays valid.
    if (opts_.replicas >= 2 && op.action != ClockAction::kSendCopy &&
        op.action != ClockAction::kUpgradeWriter) {
      op.replicate_set = ChooseReplicaSet(seg);
      op.commit_version = pd.version + 1;
    }
    ok = co_await IssueClockOp(self, clock_site, op, op_deadline);
    if (ok) {
      if (op.replicate_set != 0) {
        pd.version = op.commit_version;
        pd.replica_set = op.replicate_set;
      }
      switch (op.action) {
        case ClockAction::kSendCopy:
          pd.readers |= batch;
          break;
        case ClockAction::kUpgradeWriter:
        case ClockAction::kInvalidateForWriter:
          pd.mode = PageMode::kWriter;
          pd.writer = requester;
          pd.clock_site = requester;
          pd.readers = 0;
          break;
        case ClockAction::kDowngradeForReaders:
          pd.mode = PageMode::kReaders;
          pd.readers = op.resulting_readers;
          pd.writer = mnet::kNoSite;
          // The downgraded writer remains the clock site.
          break;
        case ClockAction::kInvalidateForReaders:
          pd.mode = PageMode::kReaders;
          pd.readers = batch;
          pd.writer = mnet::kNoSite;
          pd.clock_site = FirstSite(batch);
          break;
        case ClockAction::kReplicateOnly:
          break;
      }
    }
  }
  if (!ok) {
    ++stats_.ops_failed;
    if (recovering_.count(seg) != 0 || StaleEpoch(seg, req.body.epoch)) {
      // The epoch moved under this op (a reconstruction started while it was
      // in flight): the op was fenced, not failed. The requester re-sends
      // against the rebuilt directory — nothing is lost.
      co_return;
    }
    if (clock_site != mnet::kNoSite && clock_site != site() && !live().SiteUp(clock_site)) {
      // The clock site died holding the freshest copy-state. Instead of
      // condemning the page, rebuild the directory from the survivors; if a
      // copy survives anywhere the page keeps serving (freshest-copy
      // transfer), and only a page whose every copy died becomes lost.
      Trace("recovery", [&] {
        return "clock site " + std::to_string(clock_site) + " down; reconstructing seg " +
               std::to_string(seg);
      });
      StartRecovery(seg, /*elected=*/false);
      co_return;
    }
    pd.lost = true;
    Trace("failure", [&] {
      return "operation failed; page " + std::to_string(page) + " of seg " + std::to_string(seg) +
             " marked lost";
    });
    mmem::SiteMask notif = req.body.write ? mmem::MaskOf(requester) : batch;
    co_await NotifyRequestFailed(self, seg, page, req_id, notif);
  }
}

msim::Task<bool> Engine::GrantFromEmpty(mos::Process* self, DirectoryView& pd, const Request& req,
                                        mmem::SiteMask batch, std::uint64_t req_id,
                                        msim::Duration window_us, msim::Time op_deadline) {
  const bool write = req.body.write;
  const mnet::SiteId requester = req.body.requester;
  mmem::SiteMask targets = write ? mmem::MaskOf(requester) : batch;

  AckWait w(this, AckRole::kInstall, req.body.seg, req_id, op_deadline);
  ForEachSite(targets, [&](mnet::SiteId s) { w.acks.Owe(s); });

  // Replication: commit the page's initial (zero-filled) version to a write
  // quorum of standbys before the first grant leaves the library — from the
  // very first checkout, a sub-quorum crash can never erase the page.
  std::uint64_t new_version = pd.version;
  mmem::SiteMask new_replicas = pd.replica_set;
  if (opts_.replicas >= 2) {
    mmem::SiteMask rset = ChooseReplicaSet(req.body.seg);
    if (rset != 0) {
      mmem::PageBytes zero(mmem::kPageSize, 0);
      bool committed =
          co_await ReplicateAndWait(self, req.body.seg, req.body.page, req_id, pd.version + 1,
                                    KnownEpoch(req.body.seg), rset, zero, op_deadline);
      if (!committed) {
        co_return false;
      }
      new_version = pd.version + 1;
      new_replicas = rset;
    }
  }

  // First checkout: the page has never left the library; it is zero-filled.
  // The local install goes first, then the remote ones in site order. Each
  // is stamped with the epoch current as it leaves: a reconstruction can
  // start while an earlier install is on the wire.
  PageInstallBody install{.seg = req.body.seg,
                          .page = req.body.page,
                          .req_id = req_id,
                          .writable = write,
                          .window_us = window_us,
                          .library_site = site(),
                          .resulting_readers = write ? 0 : batch,
                          .writer_site = write ? requester : mnet::kNoSite,
                          .data = mmem::PageBytes(mmem::kPageSize, 0)};
  std::vector<mnet::SiteId> remote;
  ForEachSite(targets & ~mmem::MaskOf(site()), [&](mnet::SiteId s) { remote.push_back(s); });
  if (mmem::MaskHas(targets, site())) {
    install.epoch = KnownEpoch(req.body.seg);
    ApplyInstall(install);
    w.acks.Credit(site());
  }
  for (mnet::SiteId s : remote) {
    install.epoch = KnownEpoch(req.body.seg);
    co_await Send(self, s, install);
  }
  if (co_await AwaitAcks(self, w) != AckWaitResult::kComplete) {
    co_return false;
  }
  pd.version = new_version;
  pd.replica_set = new_replicas;
  if (write) {
    pd.mode = PageMode::kWriter;
    pd.writer = requester;
    pd.clock_site = requester;
    pd.readers = 0;
  } else {
    pd.mode = PageMode::kReaders;
    pd.readers = batch;
    pd.clock_site = requester;
    pd.writer = mnet::kNoSite;
  }
  co_return true;
}

msim::Task<bool> Engine::IssueClockOp(mos::Process* self, mnet::SiteId clock_site,
                                      ClockOpBody op, msim::Time op_deadline) {
  AckWait w(this, AckRole::kInstall, op.seg, op.req_id, op_deadline);
  w.clock_site = clock_site;
  if (op.action == ClockAction::kReplicateOnly) {
    // A re-spread grants nothing. Its one ack is the clock site's report
    // that the commit landed, and that site's death fails it fast rather
    // than being forgiven.
    w.acks.Owe(clock_site);
    w.acks.Pin(clock_site);
  } else {
    ForEachSite(op.targets, [&](mnet::SiteId s) { w.acks.Owe(s); });
  }
  for (;;) {
    if (op_deadline != 0 && kernel_->Now() >= op_deadline) {
      co_return false;
    }
    if (clock_site == site()) {
      // Colocated clock site: the check and the operation run in the library
      // process itself — no network messages for the clock exchange.
      if (const msim::Duration remaining = WindowLeft(op); remaining > 0) {
        ++stats_.invalidation_retries;
        co_await kernel_->SleepFor(self, remaining);
        continue;
      }
      if (!co_await ExecuteClockOp(self, op)) {
        co_return false;
      }
    } else {
      co_await Send(self, clock_site, op);
    }
    AckWaitResult r = co_await AwaitAcks(self, w);
    if (r != AckWaitResult::kWaitReply) {
      co_return r == AckWaitResult::kComplete;
    }
    // Refused: wait out the window and re-request the invalidation (§6.1).
    w.wait_reply = false;
    ++stats_.invalidation_retries;
    co_await kernel_->SleepFor(self, w.wait_remaining_us);
  }
}

// ---------------------------------------------------------------- ack waits --

Engine::AckWait::AckWait(Engine* e, AckRole r, mmem::SegmentId s, std::uint64_t id,
                         msim::Time deadline)
    : role(r),
      seg(s),
      acks(r == AckRole::kReplicate ? AckSet::Rule::kMajority : AckSet::Rule::kAll,
           r == AckRole::kInstall || r == AckRole::kInvalidate ? AckSet::Forgiveness::kCount
                                                                : AckSet::Forgiveness::kShrink,
           e->kernel_->Now(), deadline,
           // Recovery has no deadline; it re-examines at the ack timeout, or
           // the request timeout when that is off.
           r == AckRole::kRecovery && e->opts_.ack_timeout_us <= 0
               ? e->opts_.request_timeout_us
               : e->opts_.ack_timeout_us),
      engine(e),
      key(r, s, id) {
  AckWait*& entry = e->acks_[key];
  if (entry != nullptr) {
    entry->engine = nullptr;  // superseded: the older wait hears no more acks
  }
  entry = this;
}

Engine::AckWait::~AckWait() {
  if (engine != nullptr) {
    engine->acks_.erase(key);
  }
}

void Engine::DetachAckWaits() {
  for (auto& [key, w] : acks_) {
    w->engine = nullptr;
  }
  acks_.clear();
}

Engine::AckWait* Engine::FindAckWait(AckRole role, mmem::SegmentId seg, std::uint64_t id) {
  auto it = acks_.find(AckKey(role, seg, id));
  return it == acks_.end() ? nullptr : it->second;
}

Engine::AckWait* Engine::CreditAck(AckRole role, mmem::SegmentId seg, std::uint64_t id,
                                   mnet::SiteId from) {
  AckWait* w = FindAckWait(role, seg, id);
  if (w != nullptr) {
    w->acks.Credit(from);
    kernel_->Wakeup(w->chan);
  }
  return w;
}

template <typename Grant>
msim::Task<> Engine::AckInstall(mos::Process* self, const Grant& grant) {
  if (grant.library_site == site()) {
    CreditAck(AckRole::kInstall, grant.seg, grant.req_id, site());
    co_return;
  }
  co_await Send(self, grant.library_site,
                InstallAckBody{grant.seg, grant.page, grant.req_id, site(), grant.epoch});
}

msim::Task<Engine::AckWaitResult> Engine::AwaitAcks(mos::Process* self, AckWait& w) {
  AckSet& acks = w.acks;
  for (;;) {
    if (w.wait_reply) {
      co_return AckWaitResult::kWaitReply;
    }
    if ((w.role == AckRole::kInvalidate || w.role == AckRole::kReplicate) &&
        StaleEpoch(w.seg, w.epoch)) {
      // A reconstruction overtook the op; survivors fence its messages, so
      // the missing acks will never come.
      co_return AckWaitResult::kStale;
    }
    if (int n = acks.Forgive(acks.GoneOwing(live())); n > 0) {
      switch (w.role) {
        case AckRole::kInstall:
          stats_.degraded_acks += n;
          Trace("degraded", [&] {
            return "forgave " + std::to_string(n) + " install ack(s) from down site(s)";
          });
          break;
        case AckRole::kInvalidate:
          stats_.degraded_invalidations += n;
          Trace("degraded", [&] {
            return "forgave " + std::to_string(n) + " invalidate ack(s) from down site(s)";
          });
          break;
        case AckRole::kReplicate:
          Trace("replicate", [&] {
            return "standby site(s) died mid-commit; quorum shrinks to the survivors";
          });
          break;
        case AckRole::kRecovery:
          break;
      }
      continue;
    }
    if (AckSet::State st = acks.state(); st != AckSet::State::kPending) {
      co_return st == AckSet::State::kComplete ? AckWaitResult::kComplete
                                               : AckWaitResult::kFailed;
    }
    // A clock site that died before producing any ack will never execute the
    // op; fail fast rather than burning the whole deadline. (After partial
    // progress the in-flight installs may still complete it.)
    if (acks.timed() && w.clock_site != mnet::kNoSite && w.clock_site != site() &&
        acks.Gone(live(), w.clock_site) && acks.got() == 0) {
      co_return AckWaitResult::kFailed;
    }
    const msim::Duration sleep = acks.NextSleep(kernel_->Now());
    if (sleep < 0) {
      co_return AckWaitResult::kFailed;
    }
    co_await kernel_->SleepOnFor(self, w.chan, sleep);
  }
}

msim::Task<> Engine::NotifyRequestFailed(mos::Process* self, mmem::SegmentId seg,
                                         mmem::PageNum page, std::uint64_t req_id,
                                         mmem::SiteMask requesters) {
  std::vector<mnet::SiteId> sites;
  ForEachSite(requesters, [&](mnet::SiteId s) { sites.push_back(s); });
  RequestFailedBody failed{seg, page, req_id, /*epoch=*/0};
  for (mnet::SiteId s : sites) {
    // Stamped as each notice leaves: the epoch can move while an earlier
    // one is on the wire.
    failed.epoch = KnownEpoch(seg);
    if (s == site()) {
      ++stats_.fail_notices_sent;
      ApplyRequestFailed(failed);
    } else if (live().SiteUp(s)) {
      ++stats_.fail_notices_sent;
      co_await Send(self, s, failed);
    }
  }
}

// ------------------------------------------------------------- replication --

mmem::SiteMask Engine::ChooseReplicaSet(mmem::SegmentId seg) const {
  if (opts_.replicas < 2) {
    return 0;
  }
  // Deterministic placement: the k lowest live sites among the attached set
  // plus this library. ForEachSite walks ascending, so every library makes
  // the same choice from the same membership — no coordination needed.
  mmem::SiteMask candidates = registry_->AttachedSites(seg) | mmem::MaskOf(site());
  mmem::SiteMask out = 0;
  int n = 0;
  // Seeded bug (mutation smoke): the classic off-by-one in the placement
  // loop leaves the page one standby short of the configured count.
  const int want = opts_.mutations.quorum_off_by_one ? opts_.replicas - 1 : opts_.replicas;
  ForEachSite(candidates, [&](mnet::SiteId s) {
    if (n < want && live().SiteUp(s)) {
      out |= mmem::MaskOf(s);
      ++n;
    }
  });
  return out;
}

template <typename Pred>
void Engine::QueueRespreads(mmem::SegmentId seg, std::uint32_t epoch, Pred needs) {
  auto dit = dirs_.find(seg);
  if (dit == dirs_.end()) {
    return;
  }
  const std::vector<DirectoryView>& pages = dit->second->pages;
  bool queued = false;
  for (int p = 0; p < static_cast<int>(pages.size()); ++p) {
    if (pages[p].lost || pages[p].mode == PageMode::kEmpty || !needs(pages[p])) {
      continue;
    }
    PushLibRequest(Request{.body = {.seg = seg, .page = p, .requester = site(), .epoch = epoch},
                           .queued_at = kernel_->Now(),
                           .respread = true});
    queued = true;
  }
  if (queued) {
    kernel_->Wakeup(lib_chan_);
  }
}

msim::Task<bool> Engine::ReplicateAndWait(mos::Process* self, mmem::SegmentId seg,
                                          mmem::PageNum page, std::uint64_t req_id,
                                          std::uint64_t version, std::uint32_t epoch,
                                          mmem::SiteMask replicate_set,
                                          const mmem::PageBytes& data, msim::Time op_deadline) {
  ++stats_.quorum_waits;
  // Wait for a write quorum of ceil((k_eff + 1) / 2) acks. A standby that
  // crashes mid-wait holds nothing: it shrinks the effective replica set
  // (and the quorum with it) rather than counting as an ack.
  AckWait w(this, AckRole::kReplicate, seg, req_id, op_deadline);
  w.epoch = epoch;
  ForEachSite(replicate_set, [&](mnet::SiteId s) { w.acks.Owe(s); });
  const ReplicateBody replicate{seg, page, req_id, version, site(), epoch, data};
  // A local standby costs no wire traffic and acks immediately.
  if (mmem::MaskHas(replicate_set, site())) {
    ApplyReplicate(replicate);
    w.acks.Credit(site());
  }
  std::vector<mnet::SiteId> remote;
  ForEachSite(replicate_set & ~mmem::MaskOf(site()), [&](mnet::SiteId s) { remote.push_back(s); });
  for (mnet::SiteId s : remote) {
    ++stats_.replica_writes;
    co_await Send(self, s, replicate);
  }
  co_return co_await AwaitAcks(self, w) == AckWaitResult::kComplete;
}

void Engine::ApplyReplicate(const ReplicateBody& body) {
  std::uint64_t key = WaitKey(body.seg, body.page);
  ReplicaCopy& rc = replicas_[key];
  if (body.version >= rc.version) {
    rc.data = body.data;
    rc.version = body.version;
    rc.epoch = body.epoch;
  }
}

void Engine::ApplyPromoteReplica(const PromoteReplicaBody& body) {
  auto it = images_.find(body.seg);
  if (it == images_.end()) {
    return;  // destroyed while the promotion was in flight
  }
  auto rit = replicas_.find(WaitKey(body.seg, body.page));
  mmem::PageBytes data;
  if (rit != replicas_.end()) {
    data = rit->second.data;
  } else {
    data.assign(mmem::kPageSize, 0);  // defensive; the library saw our report
  }
  mmem::SegmentImage& img = *it->second;
  img.InstallPage(body.page, data, /*writable=*/false, kernel_->Now(), body.window_us);
  mmem::AuxPte& aux = img.aux(body.page);
  aux.reader_mask = mmem::MaskOf(site());
  aux.writer = mnet::kNoSite;
  ++stats_.pages_installed;
  ++stats_.degraded_reads;
  Trace("replicate", [&] {
    return "promoted standby of page " + std::to_string(body.page) + " seg " +
           std::to_string(body.seg) + " to live copy, version " + std::to_string(body.version);
  });
  PageWait& w = WaitFor(body.seg, body.page);
  w.pending_read = false;
  w.failed = false;
  kernel_->Wakeup(w.chan);
}

std::optional<ReplicaView> Engine::Replica(mmem::SegmentId seg, mmem::PageNum page) const {
  auto it = replicas_.find(WaitKey(seg, page));
  if (it == replicas_.end()) {
    return std::nullopt;
  }
  return ReplicaView{it->second.version, it->second.epoch};
}

// ---------------------------------------------------- library-site failover --

std::uint32_t Engine::KnownEpoch(mmem::SegmentId seg) const {
  auto it = seg_epochs_.find(seg);
  return it == seg_epochs_.end() ? 0 : it->second;
}

bool Engine::StaleEpoch(mmem::SegmentId seg, std::uint32_t epoch) {
  if (opts_.mutations.skip_epoch_fence) {
    // Seeded bug (mutation smoke): accept messages from dead epochs — the
    // exact hazard the fence exists to stop.
    return false;
  }
  if (epoch >= KnownEpoch(seg)) {
    return false;
  }
  ++stats_.stale_epoch_drops;
  Trace("fence", [&] {
    return "stale epoch " + std::to_string(epoch) + " < " + std::to_string(KnownEpoch(seg)) +
           " for seg " + std::to_string(seg);
  });
  return true;
}

void Engine::AdoptEpoch(mmem::SegmentId seg, std::uint32_t epoch) {
  if (epoch <= KnownEpoch(seg)) {
    return;
  }
  seg_epochs_[seg] = epoch;
  // Re-target this site's outstanding requests: clear the pending flags and
  // wake the waiters, whose next loop iteration re-reads the registry and
  // re-sends to the (possibly re-homed) library under the new epoch. The
  // sticky loss verdicts are from the old epoch; the reconstructed
  // directory re-validates them.
  for (auto& [key, w] : waits_) {
    if (static_cast<mmem::SegmentId>(key >> 32) != seg) {
      continue;
    }
    w->pending_read = false;
    w->pending_write = false;
    w->failed = false;
    kernel_->Wakeup(w->chan);
  }
}

void Engine::OnSiteCrashed(mnet::SiteId crashed) {
  for (const mmem::SegmentMeta& meta : registry_->All()) {
    if (!live().SiteUp(meta.library_site)) {
      // The segment's controller is gone; elect a successor if it's us.
      MaybeElect(meta.id);
    } else if (meta.library_site == site()) {
      // We are the (surviving) library: if the crashed site was clock site
      // for any page, the directory must be rebuilt around the freshest
      // surviving copies before those pages can serve again.
      auto dit = dirs_.find(meta.id);
      if (dit == dirs_.end()) {
        continue;
      }
      bool needs_recovery = false;
      for (const DirectoryView& pd : dit->second->pages) {
        if (!pd.lost && pd.mode != PageMode::kEmpty && pd.clock_site == crashed) {
          needs_recovery = true;
          break;
        }
      }
      if (needs_recovery) {
        // Reconstruction re-spreads every surviving page itself.
        StartRecovery(meta.id, /*elected=*/false);
        continue;
      }
      if (opts_.replicas >= 2) {
        // Membership changed under the standby sets: queue a re-spread for
        // every page that just lost a standby, so the replica population is
        // rebuilt to k before a second crash can reach a quorum.
        QueueRespreads(meta.id, KnownEpoch(meta.id), [crashed](const DirectoryView& pd) {
          return mmem::MaskHas(pd.replica_set, crashed);
        });
      }
    }
  }
}

void Engine::Rejoin() {
  // Reboot with amnesia: the kernel was just Revive()d, so every protocol
  // coroutine of the pre-crash incarnation is a zombie. Erase all state it
  // built. Zombies still hold references into the old maps' values, but they
  // never resume, so destroying those values is safe.
  images_.clear();
  dirs_.clear();
  waits_.clear();
  replicas_.clear();
  seg_epochs_.clear();
  recovering_.clear();
  lib_queue_.clear();
  worker_queue_.clear();
  recovery_queue_.clear();
  busy_pages_.clear();
  dying_segments_.clear();
  active_ops_.clear();
  DetachAckWaits();
  lib_procs_.clear();
  worker_proc_ = nullptr;
  recovery_proc_ = nullptr;
  next_req_id_ = 1;
  ++stats_.rejoins;
  Trace("rejoin", [&] { return "site rebooted with amnesia; starting re-admission"; });
  // Fresh serving processes (the old ones are zombies of the old boot).
  Start();
  // Transient re-admission handshake: announce to every library whose
  // segment this site was using, adopt the current epochs, and reclaim any
  // library role no survivor took over.
  kernel_->Spawn("dsm-rejoin", mos::Priority::kKernel,
                 [this](mos::Process* self) { return RejoinMain(self); });
}

msim::Task<> Engine::RejoinMain(mos::Process* self) {
  for (const mmem::SegmentMeta& meta : registry_->All()) {
    if (!mmem::MaskHas(registry_->AttachedSites(meta.id), site())) {
      continue;  // this site never used the segment
    }
    // The registry epoch is the floor; the welcome may raise it further.
    AdoptEpoch(meta.id, meta.epoch);
    if (meta.library_site == site()) {
      // We crashed as this segment's library and no survivor took over (an
      // election needs a live attached site holding state). Reclaim the role
      // by rebuilding from whatever copies survive elsewhere, under a fresh
      // epoch that fences everything from before the crash.
      StartRecovery(meta.id, /*elected=*/true);
    } else if (live().SiteUp(meta.library_site)) {
      Trace("rejoin", [&] {
        return "announce rejoin for seg " + std::to_string(meta.id) + " to library " +
               std::to_string(meta.library_site);
      });
      co_await Send(self, meta.library_site, RejoinAnnounceBody{meta.id, site(), meta.epoch});
    }
    // A down library with no successor is noticed later by the request
    // timeout path (MaybeElect), exactly like a crash this site never saw.
  }
}

void Engine::MaybeElect(mmem::SegmentId seg) {
  if (recovering_.count(seg) != 0) {
    return;
  }
  auto meta = registry_->FindById(seg);
  if (!meta.has_value() || live().SiteUp(meta->library_site)) {
    return;
  }
  if (images_.count(seg) == 0) {
    return;  // we hold no state for this segment
  }
  // Deterministic election: the successor is the lowest live attached site.
  // Every survivor computes the same answer from the shared registry and
  // the shared liveness table, so exactly one site elects itself.
  mnet::SiteId successor = mnet::kNoSite;
  ForEachSite(registry_->AttachedSites(seg), [&](mnet::SiteId s) {
    if (successor == mnet::kNoSite && live().SiteUp(s)) {
      successor = s;
    }
  });
  if (successor == site()) {
    StartRecovery(seg, /*elected=*/true);
  }
}

void Engine::StartRecovery(mmem::SegmentId seg, bool elected) {
  if (recovering_.count(seg) != 0) {
    return;
  }
  auto meta = registry_->FindById(seg);
  if (!meta.has_value()) {
    return;
  }
  const std::uint32_t new_epoch = meta->epoch + 1;
  // Claim the library role under the new epoch *before* any recovery
  // traffic flows: if we crash mid-recovery, the next survivor sees the
  // registry pointing at a dead library and elects itself with epoch + 2,
  // fencing everything we started.
  if (!registry_->UpdateLibrary(seg, site(), new_epoch)) {
    return;
  }
  AdoptEpoch(seg, new_epoch);
  recovering_.insert(seg);
  if (elected) {
    ++stats_.elections_won;
  }
  Trace("recovery", [&] {
    return std::string(elected ? "elected library" : "in-place rebuild") + " for seg " +
           std::to_string(seg) + ", epoch " + std::to_string(new_epoch);
  });
  recovery_queue_.push_back(RecoveryItem{seg, elected});
  kernel_->Wakeup(recovery_chan_);
}

msim::Task<> Engine::RecoveryMain(mos::Process* self) {
  for (;;) {
    while (recovery_queue_.empty()) {
      co_await kernel_->SleepOn(self, recovery_chan_);
    }
    RecoveryItem item = recovery_queue_.front();
    recovery_queue_.pop_front();
    co_await RecoverSegment(self, item);
    // Requests queued during the rebuild get dispatched now.
    kernel_->Wakeup(lib_chan_);
  }
}

msim::Task<> Engine::RecoverSegment(mos::Process* self, RecoveryItem item) {
  const mmem::SegmentId seg = item.seg;
  auto meta = registry_->FindById(seg);
  if (!meta.has_value() || meta->library_site != site()) {
    recovering_.erase(seg);
    co_return;  // destroyed (or superseded) while queued
  }
  const std::uint32_t epoch = meta->epoch;
  const int page_count = meta->PageCount();

  // Drain our own in-flight library/worker ops on this segment first. They
  // carry the old epoch — fenced everywhere, so they abort — but the rebuild
  // must not run concurrently with coroutines holding directory references.
  for (;;) {
    auto ait = active_ops_.find(seg);
    if (ait == active_ops_.end() || ait->second == 0) {
      break;
    }
    co_await kernel_->SleepOn(self, recovery_chan_);
  }

  // Keep what the old directory knew (in-place rebuild after a clock-site
  // crash): per-page Delta tuning, which pages were never granted, and
  // which were already lost. After an election there is no old directory —
  // it died with the library site.
  std::vector<DirectoryView> old_pages;
  bool had_dir = false;
  if (auto dit = dirs_.find(seg); dit != dirs_.end()) {
    old_pages = dit->second->pages;
    had_dir = true;
  }

  // Solicit copy-state from every surviving attached site.
  mmem::SiteMask live_peers = 0;
  ForEachSite(registry_->AttachedSites(seg) & ~mmem::MaskOf(site()), [&](mnet::SiteId s) {
    if (live().SiteUp(s)) {
      live_peers |= mmem::MaskOf(s);
    }
  });
  // Collect the replies, forgiving peers that crash mid-collection (their
  // copies die with them; what they would have reported no longer exists).
  // A peer that crashed and already rejoined is forgiven too: the query died
  // with the old incarnation, and the amnesiac reboot holds no copies.
  std::map<mnet::SiteId, std::vector<PageCopyState>> replies;
  {
    AckWait w(this, AckRole::kRecovery, seg, epoch, /*deadline=*/0);
    w.replies = &replies;
    std::vector<mnet::SiteId> peers;
    ForEachSite(live_peers, [&](mnet::SiteId s) {
      w.acks.Owe(s);
      peers.push_back(s);
    });
    const RecoveryQueryBody query{seg, epoch, site()};
    for (mnet::SiteId s : peers) {
      co_await Send(self, s, query);
    }
    (void)co_await AwaitAcks(self, w);  // no deadline: ends once every peer replied or is gone
  }
  // Our own copies participate on equal terms.
  replies[site()] = LocalCopyState(seg, page_count);

  // Reconstruct the per-page directory from the survivors' answers:
  //  * a writable copy wins — its holder is writer and clock site;
  //  * otherwise every copy-holder is a reader and the freshest copy
  //    (latest install, ties to the lowest site) carries the clock;
  //  * no copy anywhere: the page's contents died with the crash. A page
  //    the old directory knew was never granted stays Empty (zero-fill on
  //    first use); any other page is marked lost — we never fabricate
  //    contents (consistency over availability).
  auto dir = std::make_unique<SegDir>();
  dir->pages.resize(page_count);
  std::uint64_t recovered = 0;
  std::uint64_t lost = 0;
  // Pages with no surviving primary copy but a surviving standby: the
  // freshest standby (highest committed version, ties to the lowest site) is
  // promoted to a live read-only copy below.
  struct Promotion {
    mmem::PageNum page = 0;
    mnet::SiteId at = mnet::kNoSite;
    std::uint64_t version = 0;
    msim::Duration window_us = 0;
  };
  std::vector<Promotion> promotions;
  for (int p = 0; p < page_count; ++p) {
    DirectoryView& pd = dir->pages[p];
    pd.window_us = had_dir ? old_pages[p].window_us : opts_.default_window_us;
    mnet::SiteId writer = mnet::kNoSite;
    mmem::SiteMask readers = 0;
    mnet::SiteId freshest = mnet::kNoSite;
    msim::Time freshest_at = -1;
    mnet::SiteId best_rep = mnet::kNoSite;
    std::uint64_t best_rep_ver = 0;
    mmem::SiteMask rep_holders = 0;
    for (const auto& [s, states] : replies) {
      if (p >= static_cast<int>(states.size())) {
        continue;
      }
      if (states[p].replica_present) {
        rep_holders |= mmem::MaskOf(s);
        // Strictly-greater keeps the lowest site on ties (map order).
        if (best_rep == mnet::kNoSite || states[p].replica_version > best_rep_ver) {
          best_rep = s;
          best_rep_ver = states[p].replica_version;
        }
      }
      if (!states[p].present) {
        continue;
      }
      if (states[p].writable && writer == mnet::kNoSite) {
        writer = s;
      } else {
        readers |= mmem::MaskOf(s);
      }
      if (states[p].install_time > freshest_at) {
        freshest_at = states[p].install_time;
        freshest = s;
      }
    }
    // Committed-version bookkeeping survives the rebuild: never fall below
    // the highest version any survivor stored (a commit fenced mid-flight
    // may have parked version N+1 at a standby).
    const std::uint64_t known_version =
        std::max(had_dir ? old_pages[p].version : 0, best_rep_ver);
    const bool condemned_before = had_dir && old_pages[p].lost;
    if (writer != mnet::kNoSite) {
      pd.mode = PageMode::kWriter;
      pd.writer = writer;
      pd.clock_site = writer;
      pd.readers = 0;
      pd.version = known_version;
      pd.replica_set = rep_holders;
      ++recovered;
      if (condemned_before) {
        ++stats_.pages_resurrected;  // a primary copy outlived the condemnation
      }
    } else if (readers != 0) {
      pd.mode = PageMode::kReaders;
      pd.readers = readers;
      pd.writer = mnet::kNoSite;
      pd.clock_site = freshest;
      pd.version = known_version;
      pd.replica_set = rep_holders;
      ++recovered;
      if (condemned_before) {
        ++stats_.pages_resurrected;  // a primary copy outlived the condemnation
      }
    } else if (had_dir && !old_pages[p].lost && old_pages[p].mode == PageMode::kEmpty) {
      pd.mode = PageMode::kEmpty;
    } else if (opts_.replicas >= 2 && !condemned_before && best_rep != mnet::kNoSite) {
      // Every primary copy died, but a standby survived: promote the
      // freshest one to a live read-only copy (the degraded read path).
      // Nothing is lost — the page reverts to its last committed version.
      pd.mode = PageMode::kReaders;
      pd.readers = mmem::MaskOf(best_rep);
      pd.writer = mnet::kNoSite;
      pd.clock_site = best_rep;
      pd.version = best_rep_ver;
      pd.replica_set = rep_holders;
      promotions.push_back(Promotion{p, best_rep, best_rep_ver, pd.window_us});
      ++recovered;
    } else if (opts_.replicas >= 2 && !had_dir && !condemned_before) {
      // Replication invariant: every granted page was quorum-committed to
      // standbys, so "no copy and no standby anywhere" means the page was
      // never granted — it stays Empty (zero-fill on first use) instead of
      // being condemned with the dead library's directory.
      pd.mode = PageMode::kEmpty;
    } else {
      pd.lost = true;
      if (!condemned_before) {
        ++lost;  // newly lost; pages already condemned are not re-counted
      }
    }
  }
  dirs_[seg] = std::move(dir);

  // Execute the promotions under one request id and wait for the install
  // acks: the new clock sites must actually hold their copy before the
  // library serves requests against the rebuilt directory.
  if (!promotions.empty()) {
    // A site owes one ack per page it promotes, and promotions tie-break
    // to the lowest site, so one site often owes several: forgiving it must
    // forgive them all.
    const std::uint64_t req_id = next_req_id_++;
    AckWait w(this, AckRole::kInstall, seg, req_id, OpDeadline());
    for (const Promotion& pr : promotions) {
      w.acks.Owe(pr.at);
    }
    for (const Promotion& pr : promotions) {
      PromoteReplicaBody b;
      b.seg = seg;
      b.page = pr.page;
      b.req_id = req_id;
      b.version = pr.version;
      b.window_us = pr.window_us;
      b.library_site = site();
      b.epoch = epoch;
      if (pr.at == site()) {
        ApplyPromoteReplica(b);
        w.acks.Credit(site());
      } else {
        co_await Send(self, pr.at, b);
      }
    }
    (void)co_await AwaitAcks(self, w);
  }

  stats_.pages_recovered += recovered;
  stats_.pages_lost_in_recovery += lost;
  ++stats_.recoveries_completed;
  recovering_.erase(seg);

  // Membership changed (that is why we are here): refresh every surviving
  // page's standby set back to k before the next crash can reach a quorum.
  if (opts_.replicas >= 2) {
    QueueRespreads(seg, epoch, [](const DirectoryView&) { return true; });
  }

  Trace("recovery", [&] {
    return "seg " + std::to_string(seg) + " reconstructed under epoch " + std::to_string(epoch) +
           ": " + std::to_string(recovered) + " page(s) recovered (" +
           std::to_string(promotions.size()) + " promoted from standbys), " + std::to_string(lost) +
           " lost";
  });
}

std::vector<PageCopyState> Engine::LocalCopyState(mmem::SegmentId seg, int page_count) const {
  std::vector<PageCopyState> out(page_count);
  for (int p = 0; p < page_count; ++p) {
    auto rit = replicas_.find(WaitKey(seg, p));
    if (rit != replicas_.end()) {
      out[p].replica_present = true;
      out[p].replica_version = rit->second.version;
    }
  }
  auto it = images_.find(seg);
  if (it == images_.end()) {
    return out;  // no local image: primaries all absent
  }
  const mmem::SegmentImage& img = *it->second;
  int n = std::min(page_count, img.page_count());
  for (int p = 0; p < n; ++p) {
    out[p].present = img.Present(p);
    out[p].writable = img.Writable(p);
    out[p].install_time = img.aux(p).install_time;
  }
  return out;
}

// -------------------------------------------------------------- clock site --

msim::Task<bool> Engine::ExecuteClockOp(mos::Process* self, ClockOpBody op) {
  if (StaleEpoch(op.seg, op.epoch)) {
    co_return false;  // fenced: issued before a failover the queue outlived
  }
  if (images_.count(op.seg) == 0) {
    // This site rebooted with amnesia and a stale directory view routed a
    // clock op here before its rejoin announce reached the library. There is
    // no image to act on; drop the op — the announce triggers a rebuild that
    // re-homes the clock and re-drives the work.
    Trace("clock", [&] {
      return "drop clock op for seg " + std::to_string(op.seg) + ": no image after rejoin";
    });
    co_return false;
  }
  mmem::SegmentImage& img = ImageRef(op.seg);
  const mnet::SiteId me = site();
  Trace("clock", [&] {
    return std::string("execute ") + ClockActionName(op.action) + " page " +
           std::to_string(op.page);
  });
  const msim::Time deadline = OpDeadline();

  // 1. Invalidate other readers, sequential point-to-point, and wait for the
  //    acknowledgements: no stale copy may survive a write grant (§6.1).
  //    Acks owed by crashed readers are forgiven (their copy died with
  //    them); an ack missing past the op deadline abandons the operation —
  //    the library's own deadline then fails the request.
  mmem::SiteMask inv = op.invalidate_set & ~mmem::MaskOf(me);
  if (inv != 0) {
    AckWait w(this, AckRole::kInvalidate, op.seg, op.req_id, deadline);
    w.epoch = op.epoch;
    std::vector<mnet::SiteId> sites;
    ForEachSite(inv, [&](mnet::SiteId s) {
      w.acks.Owe(s);
      sites.push_back(s);
    });
    const InvalidatePageBody invalidate{op.seg, op.page, op.req_id, me, op.epoch};
    for (mnet::SiteId s : sites) {
      co_await Send(self, s, invalidate);
    }
    // Seeded bug (mutation smoke): fire the invalidates but proceed to the
    // grant without waiting for acknowledgements — a window where stale
    // reader copies coexist with the new writable copy.
    if (!opts_.mutations.drop_invalidate_ack) {
      AckWaitResult r = co_await AwaitAcks(self, w);
      if (r != AckWaitResult::kComplete) {
        if (r == AckWaitResult::kFailed) {
          Trace("failure", [&] {
            return "clock op abandoned: invalidate ack(s) missing past deadline";
          });
        }
        co_return false;
      }
    }
  }

  // 2. Local transform and data capture (copy before any local invalidation).
  //    A stale op must not touch the local copy: the reconstructed directory
  //    may be counting on it.
  if (StaleEpoch(op.seg, op.epoch)) {
    co_return false;
  }
  mmem::PageBytes data;
  bool writable_grant = false;
  switch (op.action) {
    case ClockAction::kSendCopy:
      data = img.CopyPage(op.page);
      img.aux(op.page).reader_mask = op.resulting_readers;
      break;
    case ClockAction::kInvalidateForWriter:
      data = img.CopyPage(op.page);
      img.InvalidatePage(op.page);
      ++stats_.local_invalidations;
      writable_grant = true;
      break;
    case ClockAction::kUpgradeWriter:
      writable_grant = true;
      if (!mmem::MaskHas(op.targets, me)) {
        img.InvalidatePage(op.page);
        ++stats_.local_invalidations;
      }
      break;
    case ClockAction::kDowngradeForReaders:
      img.DowngradePage(op.page);
      ++stats_.downgrades_performed;
      data = img.CopyPage(op.page);
      img.aux(op.page).reader_mask = op.resulting_readers;
      img.aux(op.page).writer = mnet::kNoSite;
      // A fresh window for the resulting read set, clocked here.
      img.aux(op.page).install_time = kernel_->Now();
      img.aux(op.page).window_us = op.new_window_us;
      Trace("downgrade", [&] { return "downgrade to reader, page " + std::to_string(op.page); });
      break;
    case ClockAction::kInvalidateForReaders:
      data = img.CopyPage(op.page);
      img.InvalidatePage(op.page);
      ++stats_.local_invalidations;
      break;
    case ClockAction::kReplicateOnly:
      // Membership-change re-spread: capture the current contents (this
      // commits a writer's outstanding stores) and distribute nothing — the
      // replication step below is the whole operation.
      data = img.CopyPage(op.page);
      break;
  }

  // 2.5 Replication commit point: ship the captured contents to the standby
  //     set and wait for a write quorum of acks before any grant leaves this
  //     site. A failed quorum abandons the op exactly like a missing
  //     invalidate ack — the library's deadline path takes over.
  if (op.replicate_set != 0 && opts_.replicas >= 2) {
    bool committed = co_await ReplicateAndWait(self, op.seg, op.page, op.req_id,
                                               op.commit_version, op.epoch, op.replicate_set,
                                               data, deadline);
    if (!committed) {
      Trace("failure", [&] {
        return "clock op abandoned: write quorum not reached for page " + std::to_string(op.page);
      });
      co_return false;
    }
  }
  if (op.action == ClockAction::kReplicateOnly) {
    // No new holders; tell the library the re-spread committed.
    co_await AckInstall(self, op);
    co_return true;
  }

  // 3. Distribute the page, or with optimization 1 the upgrade notification,
  //    to the new holders. The clock site itself may be one: the in-place
  //    upgrade.
  const bool upgrade = op.action == ClockAction::kUpgradeWriter;
  const UpgradeGrantBody grant{op.seg, op.page, op.req_id, op.new_window_us, op.library_site,
                               op.epoch};
  PageInstallBody install{.seg = op.seg,
                          .page = op.page,
                          .req_id = op.req_id,
                          .writable = writable_grant,
                          .window_us = op.new_window_us,
                          .library_site = op.library_site,
                          .resulting_readers = op.resulting_readers,
                          .epoch = op.epoch,
                          .data = std::move(data)};
  std::vector<mnet::SiteId> targets;
  ForEachSite(op.targets, [&](mnet::SiteId s) { targets.push_back(s); });
  for (mnet::SiteId s : targets) {
    install.writer_site = writable_grant ? s : mnet::kNoSite;
    if (s == me) {
      if (upgrade) {
        ApplyUpgrade(grant);
      } else {
        ApplyInstall(install);
      }
      co_await AckInstall(self, op);
    } else if (upgrade) {
      co_await Send(self, s, grant);
    } else {
      co_await Send(self, s, install);
    }
  }
  co_return true;
}

// ---------------------------------------------------------------- helpers --

msim::Duration Engine::WindowLeft(const ClockOpBody& op) const {
  if (!op.clock_check) {
    return 0;
  }
  auto it = images_.find(op.seg);
  if (it == images_.end()) {
    return 0;
  }
  const mmem::AuxPte& aux = it->second->aux(op.page);
  const msim::Duration remaining = aux.install_time + aux.window_us - kernel_->Now();
  // With honor_small_remaining (§7.1 caveat 1), a remainder shorter than an
  // invalidation retry would cost is honored at once.
  const bool honor = remaining <= 0 ||
                     (opts_.honor_small_remaining &&
                      remaining <= kernel_->costs().invalidation_retry_threshold_us);
  return honor ? 0 : remaining;
}

mmem::SegmentImage& Engine::ImageRef(mmem::SegmentId seg) {
  auto it = images_.find(seg);
  if (it == images_.end()) {
    throw std::logic_error("mirage: no local image for segment " + std::to_string(seg));
  }
  return *it->second;
}

Engine::PageWait& Engine::WaitFor(mmem::SegmentId seg, mmem::PageNum page) {
  std::uint64_t key = WaitKey(seg, page);
  auto it = waits_.find(key);
  if (it == waits_.end()) {
    it = waits_.emplace(key, std::make_unique<PageWait>()).first;
  }
  return *it->second;
}

// ------------------------------------------------------------------ tuning --

void Engine::SetSegmentWindow(mmem::SegmentId seg, msim::Duration window_us) {
  auto it = dirs_.find(seg);
  if (it == dirs_.end()) {
    throw std::logic_error("mirage: SetSegmentWindow at a non-library site");
  }
  for (DirectoryView& pd : it->second->pages) {
    pd.window_us = window_us;
  }
}

void Engine::SetPageWindow(mmem::SegmentId seg, mmem::PageNum page, msim::Duration window_us) {
  auto it = dirs_.find(seg);
  if (it == dirs_.end()) {
    throw std::logic_error("mirage: SetPageWindow at a non-library site");
  }
  it->second->pages.at(page).window_us = window_us;
}

msim::Duration Engine::PageWindow(mmem::SegmentId seg, mmem::PageNum page) const {
  auto it = dirs_.find(seg);
  if (it == dirs_.end()) {
    throw std::logic_error("mirage: PageWindow at a non-library site");
  }
  return it->second->pages.at(page).window_us;
}

mmem::SegmentImage* Engine::ImageOrNull(mmem::SegmentId seg) {
  auto it = images_.find(seg);
  return it == images_.end() ? nullptr : it->second.get();
}

std::optional<DirectoryView> Engine::Directory(mmem::SegmentId seg, mmem::PageNum page) const {
  auto it = dirs_.find(seg);
  if (it == dirs_.end()) {
    return std::nullopt;
  }
  return it->second->pages.at(page);
}

bool Engine::TestOnlySetDirectory(mmem::SegmentId seg, mmem::PageNum page,
                                  const DirectoryView& v) {
  auto it = dirs_.find(seg);
  if (it == dirs_.end() || static_cast<std::size_t>(page) >= it->second->pages.size()) {
    return false;
  }
  it->second->pages[page] = v;
  return true;
}

void Engine::TestOnlyInjectReplica(mmem::SegmentId seg, mmem::PageNum page,
                                   std::uint64_t version, std::uint32_t epoch) {
  ReplicaCopy& rc = replicas_[WaitKey(seg, page)];
  rc.data.assign(mmem::kPageSize, 0);
  rc.version = version;
  rc.epoch = epoch;
}

}  // namespace mirage
