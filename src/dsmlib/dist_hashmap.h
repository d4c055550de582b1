// A distributed open-addressed hash map laid out over Mirage pages.
//
// The map is sharded: each shard is its own System V segment, so shard
// ownership is placement — whichever site Shmgets a shard's key first
// becomes its library site, and a caller can home shards (and therefore
// request traffic) across sites with any policy it likes. ShardKey() below
// is the naming convention the kvstore workload uses for that.
//
// Per-shard layout (DESIGN.md "page-layout conventions"):
//
//   page 0            [writer lock][unused ...]          — metadata page
//   pages 1..P        slot, slot, ...                    — bucket pages
//
// A slot is [key][version][value word 0..W-1]; slots never straddle a page
// boundary (a straddling slot would cost two faults per touch). key 0 means
// empty — user keys must be nonzero — and there is no deletion, so an empty
// slot terminates a probe.
//
// Concurrency follows the paper's §8 layout advice twice over:
//  * readers are lock-free via a per-slot seqlock: the writer holds the
//    version odd while it writes the value words (and, for an insert,
//    publishes the key last), then stores a larger even version. A reader
//    that sees an odd version or a version change re-reads; page coherence
//    makes each word read individually consistent, the seqlock makes the
//    value vector consistent as a whole.
//  * updates of an existing key are latch-free: TestAndSet on the version
//    word (stores 1 = odd, returns the prior value) both latches the slot
//    against concurrent writers and takes write ownership of the bucket
//    page, so the whole update is one page transfer. Only *inserts* take
//    the per-shard lock word — it serializes slot claiming and lives alone
//    on the metadata page, so neither readers nor updaters ever touch
//    (or ping-pong) the lock page.
//
// Both the slot latch and the shard lock survive site crashes: a holder
// zombified mid-critical-section (crash faults kill processes
// non-cooperatively) would otherwise leave the word latched forever and
// every later writer spinning — an infinite page ping-pong. After a bounded
// number of failed grabs a waiter presumes the holder dead and repairs the
// primitive (see kLatchBreakRetries); repairs are counted via
// latch_breaks() / lock_breaks(). Repair is only *armed* once the workload
// reports that a crash has actually happened (SetCrashRepair): under heavy
// fault-free contention a live holder can legitimately stall past any spin
// bound (its value writes page-fault cross-site), and breaking a live
// writer's latch would both race the slot and perturb fault-free runs that
// the benchmark baselines pin byte-for-byte.
//
// Each DistHashMap object belongs to one process (like RingBuffer): every
// participant constructs its own over the same attached shard bases.
#ifndef SRC_DSMLIB_DIST_HASHMAP_H_
#define SRC_DSMLIB_DIST_HASHMAP_H_

#include <cstdint>
#include <vector>

#include "src/mem/page.h"
#include "src/os/kernel.h"
#include "src/sim/task.h"
#include "src/sysv/shm.h"

namespace mdsm {

struct HashMapLayout {
  std::uint32_t shards = 1;           // independently homed segments
  std::uint32_t slots_per_shard = 64; // open-addressing table size per shard
  std::uint32_t value_words = 4;      // 32-bit words per value

  // [key][version][value...] in words, padded to a power-of-two-friendly
  // stride is unnecessary — only page straddling matters (see SlotAddr).
  std::uint32_t SlotStrideBytes() const { return (2 + value_words) * 4; }
  std::uint32_t SlotsPerPage() const { return mmem::kPageSize / SlotStrideBytes(); }

  // Bytes of shared memory one shard segment needs: the metadata page plus
  // enough whole bucket pages for slots_per_shard slots.
  std::uint32_t ShardFootprintBytes() const {
    const std::uint32_t per_page = SlotsPerPage();
    const std::uint32_t pages = (slots_per_shard + per_page - 1) / per_page;
    return (1 + pages) * mmem::kPageSize;
  }
};

enum class GetStatus {
  kFound,    // value filled in
  kMiss,     // key not present
  kTorn,     // seqlock retries exhausted under write pressure (counted, rare)
};

enum class PutStatus {
  kInserted,
  kUpdated,
  kFull,     // probe visited every slot; shard table is full
};

class DistHashMap {
 public:
  // `shard_bases[i]` is this process's attach address for shard i; size must
  // equal layout.shards.
  DistHashMap(msysv::ShmSystem* shm, mos::Kernel* kernel, const HashMapLayout& layout,
              std::vector<mmem::VAddr> shard_bases);

  // Lock-free read. On kFound writes layout.value_words words into `out`.
  msim::Task<GetStatus> Get(mos::Process* p, std::uint32_t key, std::uint32_t* out);

  // Insert-or-update of layout.value_words words. Updates are latch-free
  // (per-slot TestAndSet); inserts serialize on the shard lock.
  msim::Task<PutStatus> Put(mos::Process* p, std::uint32_t key, const std::uint32_t* value);

  // Naming convention for shard segments: one key per (map, replica, shard).
  // Whoever Shmgets it first homes the shard there.
  static std::uint64_t ShardKey(std::uint64_t map_key, std::uint32_t replica,
                                std::uint32_t shard) {
    return map_key + static_cast<std::uint64_t>(replica) * 1000 + shard;
  }

  // splitmix64 finalizer — the hash behind shard and slot choice, exposed so
  // workloads can build self-verifying values from it.
  static std::uint64_t Mix(std::uint64_t x);

  // Seqlock pressure observed by this process's reads.
  std::uint64_t torn_retries() const { return torn_retries_; }
  std::uint64_t torn_failures() const { return torn_failures_; }
  // Writer-side latch contention observed by this process's updates.
  std::uint64_t latch_retries() const { return latch_retries_; }
  // Crash repairs: slot latches and shard locks forced open after their
  // holder was zombified by a site crash mid-critical-section.
  std::uint64_t latch_breaks() const { return latch_breaks_; }
  std::uint64_t lock_breaks() const { return lock_breaks_; }

  // Arms the crash-repair path: `crashed` must stay valid for the map's
  // lifetime and become true once any site has crashed (the kvstore workload
  // points it at run state flipped by its FaultInjector crash observer).
  // Unarmed (or while *crashed is false), waiters spin politely forever —
  // the pre-crash-lifecycle behavior the fault-free baselines pin.
  void SetCrashRepair(const bool* crashed) { crash_repair_armed_ = crashed; }

 private:
  static constexpr int kSeqlockRetries = 16;
  static constexpr msim::Duration kRetryCost = 25;
  // A live latch/lock holder has only a handful of word writes left, so it
  // cannot stay away for this many failed grabs (each one a cross-site page
  // round trip). Past the bound the holder is presumed dead — a crash fault
  // zombifies processes non-cooperatively, leaving latches stuck forever —
  // and the waiter repairs the primitive instead of spinning eternally.
  static constexpr int kLatchBreakRetries = 64;
  // Repaired slots restart their version sequence at stride * (repair count):
  // far above any version an intact slot reaches (16M updates per regime), so
  // a reader snapshot can never match versions across a repair (no ABA).
  static constexpr std::uint32_t kRepairVersionStride = 0x01000000u;

  // Latches the slot at `sa` (TAS on its version word), writes the value
  // words, and releases with the next even version. `shard_locked` says the
  // caller already holds the shard lock (Put's insert path), so the crash
  // repair path must not re-acquire it.
  msim::Task<> UpdateSlot(mos::Process* p, std::uint32_t shard, mmem::VAddr sa,
                          const std::uint32_t* value, bool shard_locked);

  // SpinLock-equivalent TAS acquisition of the shard lock (same spin cost and
  // yield backoff), plus the crash repair: after kLatchBreakRetries the dead
  // holder's word is forced open and the waiters re-contend normally, so
  // exactly one of them wins the released lock.
  msim::Task<> AcquireShardLock(mos::Process* p, std::uint32_t shard);

  bool RepairArmed() const {
    return crash_repair_armed_ != nullptr && *crash_repair_armed_;
  }

  mmem::VAddr LockAddr(std::uint32_t shard) const { return bases_[shard]; }
  // Per-shard repair counter, on the otherwise lock-only metadata page. Only
  // ever touched under the shard lock, and only by the crash repair path.
  mmem::VAddr RepairAddr(std::uint32_t shard) const { return bases_[shard] + 4; }
  // Slot s of a shard: bucket pages start after the metadata page; slots
  // pack per page without straddling.
  mmem::VAddr SlotAddr(std::uint32_t shard, std::uint32_t slot) const {
    const std::uint32_t per_page = layout_.SlotsPerPage();
    return bases_[shard] + mmem::kPageSize +
           static_cast<mmem::VAddr>(slot / per_page) * mmem::kPageSize +
           static_cast<mmem::VAddr>(slot % per_page) * layout_.SlotStrideBytes();
  }

  msysv::ShmSystem* shm_;
  mos::Kernel* kernel_;
  const bool* crash_repair_armed_ = nullptr;
  HashMapLayout layout_;
  std::vector<mmem::VAddr> bases_;
  std::uint64_t torn_retries_ = 0;
  std::uint64_t torn_failures_ = 0;
  std::uint64_t latch_retries_ = 0;
  std::uint64_t latch_breaks_ = 0;
  std::uint64_t lock_breaks_ = 0;
};

}  // namespace mdsm

#endif  // SRC_DSMLIB_DIST_HASHMAP_H_
