// A process's view of shared memory: attach records plus copies of the
// master PTEs, refreshed by the lazy remap at schedule-in (§6.2).
#ifndef SRC_MEM_ADDRESS_SPACE_H_
#define SRC_MEM_ADDRESS_SPACE_H_

#include <cstdint>
#include <list>
#include <optional>
#include <vector>

#include "src/mem/page.h"
#include "src/mem/segment_image.h"

namespace mmem {

// Default base of the first-fit shared memory arena in a process's address
// space; System V shmat picks such a region when addr == 0.
inline constexpr VAddr kShmArenaBase = 0x10000000;

// Outcome of a software "MMU check" against the process page table.
enum class Access {
  kOk,               // PTE valid with sufficient rights
  kReadFault,        // page not present
  kWriteFault,       // page not present or present read-only
  kNoWritePermission,  // segment attached read-only: a protection error
};

class AddressSpace {
 public:
  struct AttachRecord {
    SegmentId seg = -1;
    VAddr base = 0;
    int pages = 0;
    bool read_write = true;
    SegmentImage* image = nullptr;
    // Process copies of the master PTEs; synced by SyncFromMaster().
    std::vector<Pte> ptes;

    VAddr end() const { return base + static_cast<VAddr>(pages) * kPageSize; }
  };

  struct Resolved {
    AttachRecord* attach = nullptr;
    PageNum page = 0;
    int offset = 0;
  };

  // Attaches `image` at `requested` (page-aligned) or first-fit when absent.
  // Returns the mapped base, or nullopt on overlap/misalignment.
  std::optional<VAddr> Attach(SegmentImage* image, std::optional<VAddr> requested,
                              bool read_write) {
    int pages = image->page_count();
    VAddr base;
    if (requested.has_value()) {
      base = *requested;
      if (base % kPageSize != 0 || Overlaps(base, pages)) {
        return std::nullopt;
      }
    } else {
      base = FirstFit(pages);
    }
    AttachRecord rec;
    rec.seg = image->meta().id;
    rec.base = base;
    rec.pages = pages;
    rec.read_write = read_write && image->meta().perms.write;
    rec.image = image;
    rec.ptes.assign(pages, Pte{});
    attaches_.push_back(std::move(rec));
    SyncRecord(attaches_.back());
    return base;
  }

  // Detaches the mapping based at `base`; a segment attached more than once
  // keeps its other mappings. Returns the image pointer if one was there.
  SegmentImage* Detach(VAddr base) {
    for (auto it = attaches_.begin(); it != attaches_.end(); ++it) {
      if (it->base == base) {
        SegmentImage* image = it->image;
        attaches_.erase(it);
        return image;
      }
    }
    return nullptr;
  }

  // Translates a virtual address. nullopt == segmentation violation.
  std::optional<Resolved> Resolve(VAddr addr) {
    for (AttachRecord& rec : attaches_) {
      if (addr >= rec.base && addr < rec.end()) {
        VAddr off = addr - rec.base;
        return Resolved{&rec, static_cast<PageNum>(off / kPageSize),
                        static_cast<int>(off % kPageSize)};
      }
    }
    return std::nullopt;
  }

  // The software MMU: checks the *process* PTE, exactly as VAX hardware
  // checked the mapped entry, distinguishing read from write faults (§6.2).
  Access Check(const Resolved& r, bool write) const {
    const AttachRecord& rec = *r.attach;
    const Pte& pte = rec.ptes.at(r.page);
    if (write && !rec.read_write) {
      return Access::kNoWritePermission;
    }
    if (!pte.valid) {
      return write ? Access::kWriteFault : Access::kReadFault;
    }
    if (write && !pte.writable) {
      return Access::kWriteFault;
    }
    return Access::kOk;
  }

  // The lazy remap of §6.2: copies every master PTE of every attached
  // segment into the process map ("remap *all* the shared memory pages of
  // the process using a simple for-loop"). The time cost is charged by the
  // kernel at schedule-in; this performs the state transfer.
  void SyncFromMaster() {
    for (AttachRecord& rec : attaches_) {
      SyncRecord(rec);
    }
  }

  int TotalSharedPages() const {
    int n = 0;
    for (const AttachRecord& rec : attaches_) {
      n += rec.pages;
    }
    return n;
  }

  const std::list<AttachRecord>& attaches() const { return attaches_; }
  bool IsAttached(SegmentId seg) const {
    for (const AttachRecord& rec : attaches_) {
      if (rec.seg == seg) {
        return true;
      }
    }
    return false;
  }

 private:
  void SyncRecord(AttachRecord& rec) {
    for (int i = 0; i < rec.pages; ++i) {
      const Pte& master = rec.image->pte(i);
      rec.ptes[i].valid = master.valid;
      rec.ptes[i].writable = master.writable && rec.read_write;
      rec.ptes[i].aux = master.aux;
    }
  }

  bool Overlaps(VAddr base, int pages) const {
    VAddr end = base + static_cast<VAddr>(pages) * kPageSize;
    for (const AttachRecord& rec : attaches_) {
      if (base < rec.end() && rec.base < end) {
        return true;
      }
    }
    return false;
  }

  VAddr FirstFit(int pages) const {
    VAddr candidate = kShmArenaBase;
    while (Overlaps(candidate, pages)) {
      candidate += kPageSize;  // slide one page at a time: first fit
    }
    return candidate;
  }

  // std::list: Resolve hands out stable AttachRecord pointers.
  std::list<AttachRecord> attaches_;
};

}  // namespace mmem

#endif  // SRC_MEM_ADDRESS_SPACE_H_
