// System V shared memory interface (upward compatible with the paper's
// programming model, §2.2 / §3.0):
//
//  * Shmget  — create or look up a segment by key; the creating site becomes
//    the segment's library site;
//  * Shmat   — attach into a process's address space, at a chosen address or
//    first-fit, read-write or read-only;
//  * Shmdt   — detach; the last detach anywhere destroys the segment;
//  * ShmStat / ShmRemove — the shmctl subset the paper's applications use.
//
// Data access goes through typed accessors (ReadWord/WriteWord/...): each
// checks the process page table the way the VAX MMU would, raises a typed
// read or write fault on a miss, and retries once the protocol installs the
// page. This is the documented substitution for hardware traps (DESIGN.md).
// Like the MMU, a hit costs nothing extra: the accessors return an awaiter
// that performs a resident-page access inside `co_await` without suspending
// or allocating, and only a miss or a violation enters the fault path
// (DESIGN.md §10.6).
#ifndef SRC_SYSV_SHM_H_
#define SRC_SYSV_SHM_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "src/mem/address_space.h"
#include "src/mem/backend.h"
#include "src/mem/page.h"
#include "src/mirage/registry.h"
#include "src/os/kernel.h"
#include "src/sim/task.h"
#include "src/sysv/result.h"

namespace msysv {

// Thrown when an access does not translate (no attached segment covers the
// address) — the moral equivalent of SIGSEGV.
class SegmentationFault : public std::runtime_error {
 public:
  explicit SegmentationFault(mmem::VAddr addr)
      : std::runtime_error("segmentation fault at 0x" + ToHex(addr)) {}

 private:
  static std::string ToHex(mmem::VAddr a) {
    char buf[20];
    snprintf(buf, sizeof(buf), "%llx", static_cast<unsigned long long>(a));
    return buf;
  }
};

// Thrown on a write through a read-only attach — a protection violation the
// kernel would turn into a signal, not a page fault.
class ProtectionFault : public std::runtime_error {
 public:
  explicit ProtectionFault(mmem::VAddr addr)
      : std::runtime_error("write to read-only attach at address " + std::to_string(addr)) {}
};

// Thrown when the DSM protocol could not service a page fault: the segment's
// library site is unreachable (kTimedOut) or the page's contents are
// unrecoverable (kPageLost). Locus surfaces site failure on System V
// segments as EIDRM — "the segment was removed out from under you" — so
// err() is kIdRemoved. Applications in a fault-injected world catch this and
// degrade; it never occurs on a healthy network.
class PageFaultError : public std::runtime_error {
 public:
  PageFaultError(mmem::VAddr addr, mmem::FaultStatus status)
      : std::runtime_error(std::string("page fault failed (") + mmem::FaultStatusName(status) +
                           ") at address " + std::to_string(addr)),
        status_(status) {}

  ShmErr err() const { return ShmErr::kIdRemoved; }
  mmem::FaultStatus status() const { return status_; }

 private:
  mmem::FaultStatus status_;
};

// IPC_PRIVATE: always creates a fresh segment.
inline constexpr std::uint64_t kIpcPrivate = 0;

struct ShmidDs {
  mmem::SegmentMeta meta;
  int nattch = 0;
};

// One ShmSystem per site. Control-plane calls (shmget/shmat/...) are
// zero-simulated-time: Locus resolves names through its distributed name
// service outside the DSM page protocol. The data plane is fully simulated.
class ShmSystem {
 public:
  ShmSystem(mos::Kernel* kernel, mmem::DsmBackend* backend, mirage::SegmentRegistry* registry)
      : kernel_(kernel), backend_(backend), registry_(registry) {}
  ShmSystem(const ShmSystem&) = delete;
  ShmSystem& operator=(const ShmSystem&) = delete;

  // ---- Control plane ----

  Result<int> Shmget(std::uint64_t key, std::uint32_t size_bytes, bool create,
                     bool exclusive = false);
  Result<mmem::VAddr> Shmat(mos::Process* p, int shmid,
                            std::optional<mmem::VAddr> addr = std::nullopt,
                            bool read_only = false);
  Result<void> Shmdt(mos::Process* p, mmem::VAddr addr);
  Result<ShmidDs> ShmStat(int shmid) const;
  // IPC_RMID: removes the segment immediately if nothing is attached,
  // otherwise fails with EINVAL (the simulated apps detach first).
  Result<void> ShmRemove(int shmid);

  // The Mirage tuning extension to shmctl (§8): sets the window Delta for
  // the whole segment, or for one page when `page` is given. Valid only at
  // the segment's library site (as in the prototype, where the auxpte table
  // of Delta values lives with the library).
  Result<void> ShmSetWindow(int shmid, msim::Duration window_us,
                            std::optional<mmem::PageNum> page = std::nullopt);

  // ---- Data plane (call only from the owning process's coroutine) ----

  enum class Op : std::uint8_t { kReadWord, kWriteWord, kReadByte, kWriteByte, kTestAndSet };

  // The awaiter behind every typed accessor. await_ready() is the software
  // MMU: it translates the address and checks the process PTE, and on a hit
  // performs the access then and there, so the caller neither suspends nor
  // allocates. Anything else (a miss, an unmapped address, a write through
  // a read-only attach) suspends into Prepare, which faults and retries or
  // throws; the access is then performed when the caller resumes.
  class PendingAccess {
   public:
    PendingAccess(ShmSystem* shm, mos::Process* p, mmem::VAddr addr, Op op, std::uint32_t value)
        : shm_(shm), p_(p), addr_(addr), op_(op), value_(value) {}

    bool await_ready();
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller);

   protected:
    // The word or byte read, or the pre-set value of a test-and-set.
    std::uint32_t Resume();

   private:
    ShmSystem* shm_;
    mos::Process* p_;
    mmem::VAddr addr_;
    Op op_;
    std::uint32_t value_;  // the value to write; after the access, the value read
    msim::Task<mmem::AddressSpace::Resolved> fault_;  // started only on the slow path
  };

  template <typename T>
  class [[nodiscard]] Access : public PendingAccess {
   public:
    using PendingAccess::PendingAccess;
    T await_resume() {
      if constexpr (std::is_void_v<T>) {
        Resume();
      } else {
        return static_cast<T>(Resume());
      }
    }
  };

  // Each accessor must be `co_await`ed at once. Nothing happens before
  // that: the translation and the PTE check run at `co_await`, not at the
  // call.
  Access<std::uint32_t> ReadWord(mos::Process* p, mmem::VAddr addr) {
    return {this, p, addr, Op::kReadWord, 0};
  }
  Access<void> WriteWord(mos::Process* p, mmem::VAddr addr, std::uint32_t value) {
    return {this, p, addr, Op::kWriteWord, value};
  }
  Access<std::uint8_t> ReadByte(mos::Process* p, mmem::VAddr addr) {
    return {this, p, addr, Op::kReadByte, 0};
  }
  Access<void> WriteByte(mos::Process* p, mmem::VAddr addr, std::uint8_t value) {
    return {this, p, addr, Op::kWriteByte, value};
  }

  // The VAX interlocked test-and-set (§7.2): atomically sets the word to 1
  // and returns the previous value. Needs a writable copy of the page, so a
  // remote tester write-faults — exactly the interaction the paper warns
  // about. Atomicity comes free from single-writer page exclusivity.
  Access<std::uint32_t> TestAndSet(mos::Process* p, mmem::VAddr addr) {
    return {this, p, addr, Op::kTestAndSet, 0};
  }

  // Bulk transfers. Blocks fault page by page like any other access; the
  // block may span pages but must stay within one attached segment.
  msim::Task<> WriteBlock(mos::Process* p, mmem::VAddr addr,
                          const std::vector<std::uint8_t>& data);
  msim::Task<std::vector<std::uint8_t>> ReadBlock(mos::Process* p, mmem::VAddr addr,
                                                  std::uint32_t length);

  // ---- Introspection ----

  mmem::AddressSpace& SpaceFor(mos::Process* p);
  mos::Kernel* kernel() const { return kernel_; }
  mmem::DsmBackend* backend() const { return backend_; }

  // ---- Access observation (mcheck, DESIGN.md §11) ----
  // Fired after every *word* access completes (the page is held and the
  // image has been read/written). The HB race detector uses (site, seg,
  // page, kind) to linearize conflicting page touches; the SC witness
  // checker replays (offset, kind, value) per-site streams. Byte and block
  // accessors are deliberately unhooked — the checkers' scope is word ops.
  enum class AccessKind { kRead, kWrite, kRmw };
  struct AccessEvent {
    mnet::SiteId site = mnet::kNoSite;
    int pid = -1;
    mmem::SegmentId seg = -1;
    mmem::PageNum page = 0;
    int offset = 0;
    AccessKind kind = AccessKind::kRead;
    // The value read (kRead), written (kWrite), or the pre-set value
    // returned by TestAndSet (kRmw; the stored value is always 1).
    std::uint32_t value = 0;
  };
  using AccessHook = std::function<void(const AccessEvent&)>;
  void SetAccessHook(AccessHook h) { access_hook_ = std::move(h); }

 private:
  static bool IsWrite(Op op) { return op != Op::kReadWord && op != Op::kReadByte; }

  // Resolves + fault-retries until the access is possible; the slow path of
  // every typed accessor.
  msim::Task<mmem::AddressSpace::Resolved> Prepare(mos::Process* p, mmem::VAddr addr,
                                                   bool write);
  // Performs `op` on a page the process holds with sufficient rights and
  // fires the access hook for word ops. Returns what PendingAccess::Resume
  // returns.
  std::uint32_t Apply(mos::Process* p, const mmem::AddressSpace::Resolved& r, Op op,
                      std::uint32_t value);

  void UpdateProcessMemoryHooks(mos::Process* p);

  void NoteAccess(mos::Process* p, const mmem::AddressSpace::Resolved& r, AccessKind kind,
                  std::uint32_t value) const {
    if (access_hook_) {
      access_hook_(AccessEvent{kernel_->site(), p->pid, r.attach->seg, r.page,
                               r.offset, kind, value});
    }
  }

  mos::Kernel* kernel_;
  mmem::DsmBackend* backend_;
  mirage::SegmentRegistry* registry_;
  AccessHook access_hook_;
  std::map<int, std::unique_ptr<mmem::AddressSpace>> spaces_;  // by pid
};

}  // namespace msysv

#endif  // SRC_SYSV_SHM_H_
