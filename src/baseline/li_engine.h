// Baseline DSM protocol: a Li/Hudak-style centralized manager (Appendix I of
// the paper; Li & Hudak 1986), for head-to-head comparison with Mirage.
//
// Differences from Mirage, on the same substrate and cost model:
//  * no time window Delta — invalidations are honored immediately, so pages
//    can thrash freely;
//  * no read-request batching at the manager;
//  * the manager (the creating site) tracks owner + copyset per page and
//    forwards requests to the owner, which ships the page directly to the
//    requester (ownership moves to the last writer);
//  * invalidations of the copyset are issued by the manager and must be
//    acknowledged before a write is granted (coherence preserved).
#ifndef SRC_BASELINE_LI_ENGINE_H_
#define SRC_BASELINE_LI_ENGINE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "src/mem/backend.h"
#include "src/mem/page.h"
#include "src/mem/segment_image.h"
#include "src/mirage/registry.h"
#include "src/os/kernel.h"

namespace mbase {

enum class LiMsg : std::uint32_t {
  kPageReq = 100,   // requester -> manager (read or write)
  kFwdRead = 101,   // manager -> owner: send a read copy to the requester
  kFwdWrite = 102,  // manager -> owner: give up the page to the new owner
  kInvalidate = 103,  // manager -> copyset member
  kInvAck = 104,      // copyset member -> manager
  kData = 105,        // owner -> requester (page contents)
  kUpgrade = 106,     // manager -> owner==requester (write grant in place)
  kConfirm = 107,     // requester -> manager (transaction complete)
};

struct LiRequestBody {
  mmem::SegmentId seg = -1;
  mmem::PageNum page = 0;
  bool write = false;
  mnet::SiteId requester = mnet::kNoSite;
};

struct LiFwdBody {
  mmem::SegmentId seg = -1;
  mmem::PageNum page = 0;
  std::uint64_t req_id = 0;
  mnet::SiteId target = mnet::kNoSite;
  mnet::SiteId manager = mnet::kNoSite;
};

struct LiInvalidateBody {
  mmem::SegmentId seg = -1;
  mmem::PageNum page = 0;
  std::uint64_t req_id = 0;
};

struct LiDataBody {
  mmem::SegmentId seg = -1;
  mmem::PageNum page = 0;
  std::uint64_t req_id = 0;
  bool writable = false;
  mnet::SiteId manager = mnet::kNoSite;
  mmem::PageBytes data;
};

struct LiAckBody {
  mmem::SegmentId seg = -1;
  mmem::PageNum page = 0;
  std::uint64_t req_id = 0;
  mnet::SiteId from = mnet::kNoSite;
};

struct LiStats {
  std::uint64_t read_faults = 0;
  std::uint64_t write_faults = 0;
  std::uint64_t requests_processed = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t transfers = 0;
  std::uint64_t upgrades = 0;
};

class LiEngine : public mmem::DsmBackend {
 public:
  LiEngine(mos::Kernel* kernel, mirage::SegmentRegistry* registry);

  void Start() override;
  mmem::SegmentImage* EnsureImage(const mmem::SegmentMeta& meta) override;
  void DropSegment(mmem::SegmentId seg) override;
  msim::Task<mmem::FaultStatus> Fault(mos::Process* p, mmem::SegmentId seg, mmem::PageNum page,
                                      bool write) override;

  const LiStats& stats() const { return stats_; }
  mnet::SiteId site() const { return kernel_->site(); }

 private:
  struct PageDir {
    mnet::SiteId owner = mnet::kNoSite;  // kNoSite == never checked out
    mmem::SiteMask copyset = 0;          // read-copy holders (incl. owner if reading)
  };
  struct PageWait {
    bool pending_read = false;
    bool pending_write = false;
    mos::Channel chan;
  };
  struct Pending {
    std::uint64_t req_id = 0;
    int need_inv = 0;
    int got_inv = 0;
    int need_conf = 0;
    int got_conf = 0;
    mos::Channel chan;
  };
  struct Request {
    LiRequestBody body;
  };

  msim::Task<> ManagerMain(mos::Process* self);
  msim::Task<> HandlePacket(mos::Process* self, mnet::Packet pkt);
  msim::Task<> ProcessRequest(mos::Process* self, Request req);

  // Owner-side page handoff (runs in the ISR at the owner, or inline in the
  // manager process when the owner is colocated with the manager).
  msim::Task<> OwnerSend(mos::Process* ctx, const LiFwdBody& fwd, bool for_write);

  void ApplyData(const LiDataBody& body);
  void CreditConfirm(std::uint64_t req_id);
  void CreditInvAck(std::uint64_t req_id);

  PageWait& WaitFor(mmem::SegmentId seg, mmem::PageNum page);
  mmem::SegmentImage& ImageRef(mmem::SegmentId seg);

  mos::Kernel* kernel_;
  mirage::SegmentRegistry* registry_;

  std::map<mmem::SegmentId, std::unique_ptr<mmem::SegmentImage>> images_;
  std::map<mmem::SegmentId, std::vector<PageDir>> dirs_;
  std::map<std::uint64_t, std::unique_ptr<PageWait>> waits_;

  std::deque<Request> queue_;
  mos::Channel queue_chan_;
  mos::Process* mgr_proc_ = nullptr;
  Pending pending_;
  std::uint64_t next_req_id_ = 1;

  LiStats stats_;
};

}  // namespace mbase

#endif  // SRC_BASELINE_LI_ENGINE_H_
