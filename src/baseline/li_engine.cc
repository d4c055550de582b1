#include "src/baseline/li_engine.h"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/mirage/protocol.h"  // for kShortMsgBytes / kPageMsgBytes

namespace mbase {

using mmem::ForEachSite;

LiEngine::LiEngine(mos::Kernel* kernel, mirage::SegmentRegistry* registry)
    : kernel_(kernel), registry_(registry) {}

void LiEngine::Start() {
  kernel_->SetPacketHandler(
      [this](mos::Process* self, mnet::Packet pkt) { return HandlePacket(self, std::move(pkt)); });
  mgr_proc_ = kernel_->Spawn("li-manager", mos::Priority::kKernel,
                             [this](mos::Process* self) { return ManagerMain(self); });
}

mmem::SegmentImage* LiEngine::EnsureImage(const mmem::SegmentMeta& meta) {
  auto it = images_.find(meta.id);
  if (it != images_.end()) {
    return it->second.get();
  }
  auto image = std::make_unique<mmem::SegmentImage>(meta, site());
  mmem::SegmentImage* raw = image.get();
  images_[meta.id] = std::move(image);
  if (meta.library_site == site()) {
    dirs_[meta.id].resize(meta.PageCount());
  }
  return raw;
}

void LiEngine::DropSegment(mmem::SegmentId seg) {
  images_.erase(seg);
  dirs_.erase(seg);
  for (auto it = waits_.begin(); it != waits_.end();) {
    if (static_cast<mmem::SegmentId>(it->first >> 32) == seg) {
      it = waits_.erase(it);
    } else {
      ++it;
    }
  }
}

msim::Task<mmem::FaultStatus> LiEngine::Fault(mos::Process* p, mmem::SegmentId seg,
                                              mmem::PageNum page, bool write) {
  if (write) {
    ++stats_.write_faults;
  } else {
    ++stats_.read_faults;
  }
  auto meta = registry_->FindById(seg);
  if (!meta.has_value()) {
    throw std::logic_error("baseline: fault on unknown segment");
  }
  mmem::SegmentImage& img = ImageRef(seg);
  PageWait& w = WaitFor(seg, page);
  for (;;) {
    if (img.Present(page) && (!write || img.Writable(page))) {
      co_return mmem::FaultStatus::kOk;  // the baseline has no recovery paths
    }
    bool& pending = write ? w.pending_write : w.pending_read;
    if (!pending) {
      pending = true;
      LiRequestBody body{seg, page, write, site()};
      if (meta->library_site == site()) {
        co_await kernel_->Compute(p, kernel_->costs().local_fault_cpu_us);
        queue_.push_back(Request{body});
        kernel_->Wakeup(queue_chan_);
      } else {
        co_await kernel_->Compute(p, kernel_->costs().fault_request_cpu_us);
        co_await kernel_->Send(
            p, mnet::MakePacket(site(), meta->library_site,
                                static_cast<std::uint32_t>(LiMsg::kPageReq),
                                mirage::kShortMsgBytes, body));
      }
    }
    co_await kernel_->SleepOn(p, w.chan);
  }
}

msim::Task<> LiEngine::HandlePacket(mos::Process* self, mnet::Packet pkt) {
  switch (static_cast<LiMsg>(pkt.type)) {
    case LiMsg::kPageReq: {
      queue_.push_back(Request{mnet::PacketBody<LiRequestBody>(pkt)});
      kernel_->Wakeup(queue_chan_);
      break;
    }
    case LiMsg::kFwdRead: {
      co_await OwnerSend(self, mnet::PacketBody<LiFwdBody>(pkt), /*for_write=*/false);
      break;
    }
    case LiMsg::kFwdWrite: {
      co_await OwnerSend(self, mnet::PacketBody<LiFwdBody>(pkt), /*for_write=*/true);
      break;
    }
    case LiMsg::kInvalidate: {
      const auto& b = mnet::PacketBody<LiInvalidateBody>(pkt);
      auto it = images_.find(b.seg);
      if (it != images_.end() && it->second->Present(b.page)) {
        it->second->InvalidatePage(b.page);
      }
      LiAckBody a{b.seg, b.page, b.req_id, site()};
      co_await kernel_->Send(self,
                             mnet::MakePacket(site(), pkt.src,
                                              static_cast<std::uint32_t>(LiMsg::kInvAck),
                                              mirage::kShortMsgBytes, a));
      break;
    }
    case LiMsg::kInvAck: {
      CreditInvAck(mnet::PacketBody<LiAckBody>(pkt).req_id);
      break;
    }
    case LiMsg::kData: {
      const auto& b = mnet::PacketBody<LiDataBody>(pkt);
      ApplyData(b);
      if (b.manager == site()) {
        CreditConfirm(b.req_id);
      } else {
        LiAckBody a{b.seg, b.page, b.req_id, site()};
        co_await kernel_->Send(self,
                               mnet::MakePacket(site(), b.manager,
                                                static_cast<std::uint32_t>(LiMsg::kConfirm),
                                                mirage::kShortMsgBytes, a));
      }
      break;
    }
    case LiMsg::kUpgrade: {
      const auto& b = mnet::PacketBody<LiDataBody>(pkt);
      mmem::SegmentImage& img = ImageRef(b.seg);
      img.UpgradePage(b.page, kernel_->Now(), 0);
      ++stats_.upgrades;
      PageWait& w = WaitFor(b.seg, b.page);
      w.pending_read = false;
      w.pending_write = false;
      kernel_->Wakeup(w.chan);
      if (b.manager == site()) {
        CreditConfirm(b.req_id);
      } else {
        LiAckBody a{b.seg, b.page, b.req_id, site()};
        co_await kernel_->Send(self,
                               mnet::MakePacket(site(), b.manager,
                                                static_cast<std::uint32_t>(LiMsg::kConfirm),
                                                mirage::kShortMsgBytes, a));
      }
      break;
    }
    case LiMsg::kConfirm: {
      CreditConfirm(mnet::PacketBody<LiAckBody>(pkt).req_id);
      break;
    }
  }
}

msim::Task<> LiEngine::ManagerMain(mos::Process* self) {
  for (;;) {
    while (queue_.empty()) {
      co_await kernel_->SleepOn(self, queue_chan_);
    }
    Request req = queue_.front();
    queue_.pop_front();
    co_await ProcessRequest(self, req);
  }
}

msim::Task<> LiEngine::ProcessRequest(mos::Process* self, Request req) {
  ++stats_.requests_processed;
  co_await kernel_->Compute(self, kernel_->costs().library_processing_cpu_us);
  auto dit = dirs_.find(req.body.seg);
  if (dit == dirs_.end()) {
    co_return;
  }
  PageDir& pd = dit->second.at(req.body.page);
  const mnet::SiteId requester = req.body.requester;
  const bool write = req.body.write;
  const mmem::SegmentId seg = req.body.seg;
  const mmem::PageNum page = req.body.page;

  // Already satisfied while queued? Convention: copyset == 0 with an owner
  // means the owner holds the page exclusively writable (Li & Hudak).
  bool satisfied = write ? (pd.owner == requester && pd.copyset == 0)
                         : (mmem::MaskHas(pd.copyset, requester) || pd.owner == requester);
  if (satisfied) {
    co_return;
  }

  std::uint64_t req_id = next_req_id_++;
  pending_.req_id = req_id;
  pending_.need_inv = 0;
  pending_.got_inv = 0;
  pending_.need_conf = 1;
  pending_.got_conf = 0;

  if (write) {
    // Invalidate every read copy other than the requester's and the
    // owner's (the owner's copy is handled by the transfer itself).
    mmem::SiteMask inv =
        pd.copyset & ~mmem::MaskOf(requester) & ~(pd.owner >= 0 ? mmem::MaskOf(pd.owner) : 0);
    pending_.need_inv = mmem::MaskCount(inv);
    std::vector<mnet::SiteId> sites;
    ForEachSite(inv, [&](mnet::SiteId s) { sites.push_back(s); });
    for (mnet::SiteId s : sites) {
      if (s == site()) {
        mmem::SegmentImage& img = ImageRef(seg);
        if (img.Present(page)) {
          img.InvalidatePage(page);
        }
        CreditInvAck(req_id);
      } else {
        LiInvalidateBody b{seg, page, req_id};
        co_await kernel_->Send(self,
                               mnet::MakePacket(site(), s,
                                                static_cast<std::uint32_t>(LiMsg::kInvalidate),
                                                mirage::kShortMsgBytes, b));
        ++stats_.invalidations;
      }
    }
    while (pending_.got_inv < pending_.need_inv) {
      co_await kernel_->SleepOn(self, pending_.chan);
    }
  }

  LiFwdBody fwd{seg, page, req_id, requester, site()};
  if (pd.owner == mnet::kNoSite) {
    // First checkout: ship a zero page from the manager.
    LiDataBody b;
    b.seg = seg;
    b.page = page;
    b.req_id = req_id;
    b.writable = write;
    b.manager = site();
    b.data.assign(mmem::kPageSize, 0);
    if (requester == site()) {
      ApplyData(b);
      CreditConfirm(req_id);
    } else {
      co_await kernel_->Send(self,
                             mnet::MakePacket(site(), requester,
                                              static_cast<std::uint32_t>(LiMsg::kData),
                                              mirage::kPageMsgBytes, std::move(b)));
    }
    ++stats_.transfers;
  } else if (write && pd.owner == requester) {
    // Upgrade in place.
    LiDataBody b;
    b.seg = seg;
    b.page = page;
    b.req_id = req_id;
    b.writable = true;
    b.manager = site();
    if (requester == site()) {
      mmem::SegmentImage& img = ImageRef(seg);
      img.UpgradePage(page, kernel_->Now(), 0);
      ++stats_.upgrades;
      PageWait& w = WaitFor(seg, page);
      w.pending_read = false;
      w.pending_write = false;
      kernel_->Wakeup(w.chan);
      CreditConfirm(req_id);
    } else {
      co_await kernel_->Send(self,
                             mnet::MakePacket(site(), requester,
                                              static_cast<std::uint32_t>(LiMsg::kUpgrade),
                                              mirage::kShortMsgBytes, std::move(b)));
    }
  } else if (pd.owner == site()) {
    // The manager itself owns the page.
    co_await OwnerSend(self, fwd, write);
  } else {
    co_await kernel_->Send(
        self, mnet::MakePacket(site(), pd.owner,
                               static_cast<std::uint32_t>(write ? LiMsg::kFwdWrite
                                                                : LiMsg::kFwdRead),
                               mirage::kShortMsgBytes, fwd));
  }

  while (pending_.got_conf < pending_.need_conf) {
    co_await kernel_->SleepOn(self, pending_.chan);
  }

  // Directory update. copyset == 0 with an owner encodes exclusive write.
  if (write) {
    pd.owner = requester;
    pd.copyset = 0;
  } else {
    if (pd.owner == mnet::kNoSite) {
      pd.owner = requester;
    }
    pd.copyset |= mmem::MaskOf(requester) | mmem::MaskOf(pd.owner);
  }
}

msim::Task<> LiEngine::OwnerSend(mos::Process* ctx, const LiFwdBody& fwd, bool for_write) {
  mmem::SegmentImage& img = ImageRef(fwd.seg);
  LiDataBody b;
  b.seg = fwd.seg;
  b.page = fwd.page;
  b.req_id = fwd.req_id;
  b.writable = for_write;
  b.manager = fwd.manager;
  b.data = img.CopyPage(fwd.page);
  if (for_write) {
    img.InvalidatePage(fwd.page);
  } else if (img.Writable(fwd.page)) {
    img.DowngradePage(fwd.page);
  }
  ++stats_.transfers;
  if (fwd.target == site()) {
    throw std::logic_error("baseline: owner forwarding to itself");
  }
  co_await kernel_->Send(ctx, mnet::MakePacket(site(), fwd.target,
                                               static_cast<std::uint32_t>(LiMsg::kData),
                                               mirage::kPageMsgBytes, std::move(b)));
}

void LiEngine::ApplyData(const LiDataBody& body) {
  auto it = images_.find(body.seg);
  if (it == images_.end()) {
    return;
  }
  it->second->InstallPage(body.page, body.data, body.writable, kernel_->Now(), 0);
  PageWait& w = WaitFor(body.seg, body.page);
  w.pending_read = false;
  if (body.writable) {
    w.pending_write = false;
  }
  kernel_->Wakeup(w.chan);
}

void LiEngine::CreditConfirm(std::uint64_t req_id) {
  if (pending_.req_id == req_id) {
    ++pending_.got_conf;
    kernel_->Wakeup(pending_.chan);
  }
}

void LiEngine::CreditInvAck(std::uint64_t req_id) {
  if (pending_.req_id == req_id) {
    ++pending_.got_inv;
    kernel_->Wakeup(pending_.chan);
  }
}

LiEngine::PageWait& LiEngine::WaitFor(mmem::SegmentId seg, mmem::PageNum page) {
  std::uint64_t key = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(seg)) << 32) |
                      static_cast<std::uint32_t>(page);
  auto it = waits_.find(key);
  if (it == waits_.end()) {
    it = waits_.emplace(key, std::make_unique<PageWait>()).first;
  }
  return *it->second;
}

mmem::SegmentImage& LiEngine::ImageRef(mmem::SegmentId seg) {
  auto it = images_.find(seg);
  if (it == images_.end()) {
    throw std::logic_error("baseline: no local image for segment " + std::to_string(seg));
  }
  return *it->second;
}

}  // namespace mbase
