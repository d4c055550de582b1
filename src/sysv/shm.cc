#include "src/sysv/shm.h"

#include <utility>

#include "src/mirage/engine.h"

namespace msysv {

Result<int> ShmSystem::Shmget(std::uint64_t key, std::uint32_t size_bytes, bool create,
                              bool exclusive) {
  if (size_bytes == 0) {
    return ShmErr::kInval;
  }
  if (key != kIpcPrivate) {
    auto existing = registry_->FindByKey(key);
    if (existing.has_value()) {
      if (create && exclusive) {
        return ShmErr::kExist;
      }
      if (size_bytes > existing->size_bytes) {
        return ShmErr::kInval;
      }
      return existing->id;
    }
    if (!create) {
      return ShmErr::kNoEnt;
    }
  }
  auto meta = registry_->Create(key, size_bytes, mmem::SegmentPerms{}, kernel_->site());
  if (!meta.has_value()) {
    return ShmErr::kExist;
  }
  // The creating site is the segment's library site; materialize its image
  // and directory now.
  backend_->EnsureImage(*meta);
  return meta->id;
}

Result<mmem::VAddr> ShmSystem::Shmat(mos::Process* p, int shmid,
                                     std::optional<mmem::VAddr> addr, bool read_only) {
  auto meta = registry_->FindById(shmid);
  if (!meta.has_value()) {
    return ShmErr::kInval;
  }
  if (read_only && !meta->perms.read) {
    return ShmErr::kAccess;
  }
  if (!read_only && !meta->perms.write) {
    return ShmErr::kAccess;
  }
  mmem::SegmentImage* image = backend_->EnsureImage(*meta);
  mmem::AddressSpace& as = SpaceFor(p);
  auto base = as.Attach(image, addr, !read_only);
  if (!base.has_value()) {
    return ShmErr::kInval;
  }
  registry_->NoteAttach(shmid, kernel_->site());
  UpdateProcessMemoryHooks(p);
  return *base;
}

Result<void> ShmSystem::Shmdt(mos::Process* p, mmem::VAddr addr) {
  mmem::AddressSpace& as = SpaceFor(p);
  auto r = as.Resolve(addr);
  if (!r.has_value() || r->attach->base != addr) {
    return ShmErr::kInval;
  }
  mmem::SegmentId seg = r->attach->seg;
  as.Detach(addr);
  UpdateProcessMemoryHooks(p);
  int remaining = registry_->NoteDetach(seg, kernel_->site());
  if (remaining == 0) {
    // "The last detach of a segment destroys it" (§2.2).
    registry_->Destroy(seg);
  }
  return {};
}

Result<ShmidDs> ShmSystem::ShmStat(int shmid) const {
  auto meta = registry_->FindById(shmid);
  if (!meta.has_value()) {
    return ShmErr::kInval;
  }
  ShmidDs ds;
  ds.meta = *meta;
  ds.nattch = registry_->AttachCount(shmid);
  return ds;
}

Result<void> ShmSystem::ShmRemove(int shmid) {
  auto meta = registry_->FindById(shmid);
  if (!meta.has_value()) {
    return ShmErr::kInval;
  }
  if (registry_->AttachCount(shmid) != 0) {
    return ShmErr::kInval;
  }
  registry_->Destroy(shmid);
  return {};
}

Result<void> ShmSystem::ShmSetWindow(int shmid, msim::Duration window_us,
                                     std::optional<mmem::PageNum> page) {
  auto meta = registry_->FindById(shmid);
  if (!meta.has_value() || window_us < 0) {
    return ShmErr::kInval;
  }
  auto* engine = dynamic_cast<mirage::Engine*>(backend_);
  if (engine == nullptr || !engine->IsLibraryFor(shmid)) {
    // Not the library site (or not the Mirage protocol): EACCES, as the
    // prototype's tuning interface is a library-site facility.
    return ShmErr::kAccess;
  }
  if (page.has_value()) {
    if (*page < 0 || *page >= meta->PageCount()) {
      return ShmErr::kInval;
    }
    engine->SetPageWindow(shmid, *page, window_us);
  } else {
    engine->SetSegmentWindow(shmid, window_us);
  }
  return {};
}

msim::Task<> ShmSystem::WriteBlock(mos::Process* p, mmem::VAddr addr,
                                   const std::vector<std::uint8_t>& data) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    co_await WriteByte(p, addr + i, data[i]);
  }
}

msim::Task<std::vector<std::uint8_t>> ShmSystem::ReadBlock(mos::Process* p, mmem::VAddr addr,
                                                           std::uint32_t length) {
  std::vector<std::uint8_t> out(length);
  for (std::uint32_t i = 0; i < length; ++i) {
    out[i] = co_await ReadByte(p, addr + i);
  }
  co_return out;
}

mmem::AddressSpace& ShmSystem::SpaceFor(mos::Process* p) {
  auto it = spaces_.find(p->pid);
  if (it == spaces_.end()) {
    it = spaces_.emplace(p->pid, std::make_unique<mmem::AddressSpace>()).first;
  }
  return *it->second;
}

void ShmSystem::UpdateProcessMemoryHooks(mos::Process* p) {
  mmem::AddressSpace* as = &SpaceFor(p);
  p->shared_page_count = as->TotalSharedPages();
  if (p->shared_page_count > 0) {
    p->on_schedule_in = [as] { as->SyncFromMaster(); };
  } else {
    p->on_schedule_in = nullptr;
  }
}

msim::Task<mmem::AddressSpace::Resolved> ShmSystem::Prepare(mos::Process* p, mmem::VAddr addr,
                                                            bool write) {
  mmem::AddressSpace& as = SpaceFor(p);
  for (;;) {
    auto r = as.Resolve(addr);
    if (!r.has_value()) {
      throw SegmentationFault(addr);
    }
    switch (as.Check(*r, write)) {
      case mmem::Access::kOk:
        co_return *r;
      case mmem::Access::kNoWritePermission:
        throw ProtectionFault(addr);
      case mmem::Access::kReadFault:
      case mmem::Access::kWriteFault: {
        mmem::FaultStatus st = co_await backend_->Fault(p, r->attach->seg, r->page, write);
        if (st != mmem::FaultStatus::kOk) {
          // Protocol-level recovery gave up (site faults): surface the
          // EIDRM-style error instead of retrying forever.
          throw PageFaultError(addr, st);
        }
        // The kernel remaps lazily at schedule-in; the process slept in
        // Fault, so its PTEs were refreshed before it got back here. Sync
        // explicitly as well so a same-instant wake never sees stale PTEs.
        as.SyncFromMaster();
        break;
      }
    }
  }
}

std::uint32_t ShmSystem::Apply(mos::Process* p, const mmem::AddressSpace::Resolved& r, Op op,
                               std::uint32_t value) {
  mmem::SegmentImage* image = r.attach->image;
  switch (op) {
    case Op::kReadWord:
      value = image->ReadWord(r.page, r.offset);
      NoteAccess(p, r, AccessKind::kRead, value);
      return value;
    case Op::kWriteWord:
      image->WriteWord(r.page, r.offset, value);
      NoteAccess(p, r, AccessKind::kWrite, value);
      return value;
    case Op::kReadByte:
      return image->ReadByte(r.page, r.offset);
    case Op::kWriteByte:
      image->WriteByte(r.page, r.offset, static_cast<std::uint8_t>(value));
      return value;
    case Op::kTestAndSet: {
      std::uint32_t old = image->ReadWord(r.page, r.offset);
      image->WriteWord(r.page, r.offset, 1);
      NoteAccess(p, r, AccessKind::kRmw, old);
      return old;
    }
  }
  return value;
}

bool ShmSystem::PendingAccess::await_ready() {
  mmem::AddressSpace& as = shm_->SpaceFor(p_);
  auto r = as.Resolve(addr_);
  if (!r.has_value() || as.Check(*r, IsWrite(op_)) != mmem::Access::kOk) {
    return false;
  }
  value_ = shm_->Apply(p_, *r, op_, value_);
  return true;
}

std::coroutine_handle<> ShmSystem::PendingAccess::await_suspend(
    std::coroutine_handle<> caller) {
  fault_ = shm_->Prepare(p_, addr_, IsWrite(op_));
  return fault_.await_suspend(caller);
}

std::uint32_t ShmSystem::PendingAccess::Resume() {
  if (fault_.Valid()) {
    value_ = shm_->Apply(p_, fault_.await_resume(), op_, value_);
  }
  return value_;
}

}  // namespace msysv
