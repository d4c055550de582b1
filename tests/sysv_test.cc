// System V IPC semantics (§2.2): key namespace, creation flags, attach
// rules, permissions, detach-destroys, shmctl subset, and the typed
// accessor fault/violation behaviour, hit path and access hook.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "src/sysv/world.h"

namespace {

// Heap allocations made by the calling thread, counted by the replacement
// global operator new below (it serves this whole test binary).
thread_local std::size_t t_heap_allocations = 0;

void* CountedAlloc(std::size_t n) noexcept {
  ++t_heap_allocations;
  return std::malloc(n == 0 ? 1 : n);
}

void* CountedAllocOrThrow(std::size_t n) {
  if (void* p = CountedAlloc(n)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAllocOrThrow(n); }
void* operator new[](std::size_t n) { return CountedAllocOrThrow(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using mos::Priority;
using mos::Process;
using msim::kSecond;
using msim::Task;
using msysv::ShmErr;
using msysv::World;

struct SysvTest : public ::testing::Test {
  World w{2};

  // Runs a coroutine as a process at `site` to completion.
  void AsProcess(int site, std::function<Task<>(Process*)> fn) {
    bool done = false;
    w.kernel(site).Spawn("t", Priority::kUser, [fn = std::move(fn), &done](
                                                   Process* p) -> Task<> {
      co_await fn(p);
      done = true;
    });
    ASSERT_TRUE(w.RunUntil([&] { return done; }, 30 * kSecond));
  }
};

TEST_F(SysvTest, ShmgetCreatesAndFindsByKey) {
  auto r1 = w.shm(0).Shmget(123, 4096, /*create=*/true);
  ASSERT_TRUE(r1.ok());
  // Same key from another site resolves to the same segment.
  auto r2 = w.shm(1).Shmget(123, 4096, /*create=*/false);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value(), r2.value());
}

TEST_F(SysvTest, ShmgetErrnoSurface) {
  EXPECT_EQ(w.shm(0).Shmget(5, 0, true).error(), ShmErr::kInval);     // zero size
  EXPECT_EQ(w.shm(0).Shmget(5, 512, false).error(), ShmErr::kNoEnt);  // no IPC_CREAT
  ASSERT_TRUE(w.shm(0).Shmget(5, 512, true).ok());
  EXPECT_EQ(w.shm(0).Shmget(5, 512, true, /*exclusive=*/true).error(), ShmErr::kExist);
  // Requesting more than the existing size fails; less or equal succeeds.
  EXPECT_EQ(w.shm(0).Shmget(5, 1024, true).error(), ShmErr::kInval);
  EXPECT_TRUE(w.shm(0).Shmget(5, 256, true).ok());
}

TEST_F(SysvTest, IpcPrivateAlwaysCreatesFreshSegments) {
  int a = w.shm(0).Shmget(msysv::kIpcPrivate, 512, true).value();
  int b = w.shm(0).Shmget(msysv::kIpcPrivate, 512, true).value();
  EXPECT_NE(a, b);
}

TEST_F(SysvTest, CreatorBecomesLibrarySite) {
  int id = w.shm(1).Shmget(9, 512, true).value();
  auto ds = w.shm(1).ShmStat(id);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value().meta.library_site, 1);
  EXPECT_TRUE(w.engine(1)->IsLibraryFor(id));
  EXPECT_FALSE(w.engine(0)->IsLibraryFor(id));
}

TEST_F(SysvTest, AttachAtChosenAndFirstFitAddresses) {
  int id = w.shm(0).Shmget(7, 1024, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    auto fixed = w.shm(0).Shmat(p, id, mmem::VAddr{0x30000000});
    EXPECT_EQ(fixed.value(), 0x30000000u);
    co_return;
  });
  AsProcess(0, [&](Process* p) -> Task<> {
    auto firstfit = w.shm(0).Shmat(p, id);
    EXPECT_EQ(firstfit.value(), mmem::kShmArenaBase);
    co_return;
  });
}

TEST_F(SysvTest, ShmatRejectsBadIdAndBadAddress) {
  int id = w.shm(0).Shmget(7, 1024, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    EXPECT_EQ(w.shm(0).Shmat(p, 999).error(), ShmErr::kInval);
    EXPECT_EQ(w.shm(0).Shmat(p, id, mmem::VAddr{0x30000001}).error(), ShmErr::kInval);
    co_return;
  });
}

TEST_F(SysvTest, NattchTracksAttachesAcrossSites) {
  int id = w.shm(0).Shmget(7, 512, true).value();
  mmem::VAddr base0 = 0;
  AsProcess(0, [&](Process* p) -> Task<> {
    base0 = w.shm(0).Shmat(p, id).value();
    co_await w.shm(0).WriteWord(p, base0, 1);
    co_return;
  });
  EXPECT_EQ(w.shm(0).ShmStat(id).value().nattch, 1);
  AsProcess(1, [&](Process* p) -> Task<> {
    (void)w.shm(1).Shmat(p, id).value();
    co_return;
  });
  EXPECT_EQ(w.shm(1).ShmStat(id).value().nattch, 2);
}

TEST_F(SysvTest, LastDetachDestroysSegment) {
  int id = w.shm(0).Shmget(7, 512, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    mmem::VAddr base = w.shm(0).Shmat(p, id).value();
    co_await w.shm(0).WriteWord(p, base, 1);
    EXPECT_TRUE(w.shm(0).Shmdt(p, base).ok());
    co_return;
  });
  // Gone from the namespace and from the engines.
  EXPECT_EQ(w.shm(0).ShmStat(id).error(), ShmErr::kInval);
  EXPECT_EQ(w.engine(0)->ImageOrNull(id), nullptr);
  // The key is free for reuse.
  EXPECT_TRUE(w.shm(0).Shmget(7, 512, true, /*exclusive=*/true).ok());
}

TEST_F(SysvTest, ShmdtRequiresExactBase) {
  int id = w.shm(0).Shmget(7, 1024, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    mmem::VAddr base = w.shm(0).Shmat(p, id).value();
    EXPECT_EQ(w.shm(0).Shmdt(p, base + 512).error(), ShmErr::kInval);
    EXPECT_TRUE(w.shm(0).Shmdt(p, base).ok());
    co_return;
  });
}

TEST_F(SysvTest, ShmdtDetachesOnlyTheMappingAtAddr) {
  // One process may attach a segment twice; each shmdt undoes the attach
  // based at its argument and leaves the other mapping in place.
  int id = w.shm(0).Shmget(7, 512, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    auto& shm = w.shm(0);
    mmem::VAddr first = shm.Shmat(p, id, mmem::VAddr{0x50000000}).value();
    mmem::VAddr second = shm.Shmat(p, id, mmem::VAddr{0x90000000}).value();
    EXPECT_EQ(shm.ShmStat(id).value().nattch, 2);
    co_await shm.WriteWord(p, first + 8, 4242);
    EXPECT_TRUE(shm.Shmdt(p, second).ok());
    EXPECT_EQ(shm.ShmStat(id).value().nattch, 1);
    std::uint32_t got = 0;
    bool segv = false;
    try {
      got = co_await shm.ReadWord(p, first + 8);
    } catch (const msysv::SegmentationFault&) {
      segv = true;
    }
    EXPECT_FALSE(segv);
    EXPECT_EQ(got, 4242u);
    EXPECT_EQ(shm.Shmdt(p, second).error(), ShmErr::kInval);
    EXPECT_TRUE(shm.Shmdt(p, first).ok());
  });
  EXPECT_EQ(w.shm(0).ShmStat(id).error(), ShmErr::kInval);
}

TEST_F(SysvTest, RemoveFailsWhileAttached) {
  int id = w.shm(0).Shmget(7, 512, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    mmem::VAddr base = w.shm(0).Shmat(p, id).value();
    EXPECT_EQ(w.shm(0).ShmRemove(id).error(), ShmErr::kInval);
    EXPECT_TRUE(w.shm(0).Shmdt(p, base).ok());
    co_return;
  });
  // Destroyed by the last detach already; removing again reports EINVAL.
  EXPECT_EQ(w.shm(0).ShmRemove(id).error(), ShmErr::kInval);
}

TEST_F(SysvTest, RemoveUnattachedSegmentWorks) {
  int id = w.shm(0).Shmget(7, 512, true).value();
  EXPECT_TRUE(w.shm(0).ShmRemove(id).ok());
  EXPECT_EQ(w.shm(0).ShmStat(id).error(), ShmErr::kInval);
}

TEST_F(SysvTest, UnmappedAccessRaisesSegmentationFault) {
  AsProcess(0, [&](Process* p) -> Task<> {
    bool threw = false;
    try {
      (void)co_await w.shm(0).ReadWord(p, 0xDEAD0000);
    } catch (const msysv::SegmentationFault&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  });
}

TEST_F(SysvTest, WriteThroughReadOnlyAttachRaisesProtectionFault) {
  int id = w.shm(0).Shmget(7, 512, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    mmem::VAddr base = w.shm(0).Shmat(p, id, std::nullopt, /*read_only=*/true).value();
    // Reads work fine through a read-only attach...
    EXPECT_EQ(co_await w.shm(0).ReadWord(p, base), 0u);
    // ...writes are a protection violation, not a page fault.
    bool threw = false;
    try {
      co_await w.shm(0).WriteWord(p, base, 1);
    } catch (const msysv::ProtectionFault&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  });
}

TEST_F(SysvTest, ByteAccessorsWork) {
  int id = w.shm(0).Shmget(7, 512, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    auto& shm = w.shm(0);
    mmem::VAddr base = shm.Shmat(p, id).value();
    co_await shm.WriteByte(p, base + 17, 0xAB);
    EXPECT_EQ(co_await shm.ReadByte(p, base + 17), 0xAB);
  });
}

TEST_F(SysvTest, TestAndSetReturnsOldValueAndSets) {
  int id = w.shm(0).Shmget(7, 512, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    auto& shm = w.shm(0);
    mmem::VAddr base = shm.Shmat(p, id).value();
    EXPECT_EQ(co_await shm.TestAndSet(p, base), 0u);
    EXPECT_EQ(co_await shm.TestAndSet(p, base), 1u);
    co_await shm.WriteWord(p, base, 0);
    EXPECT_EQ(co_await shm.TestAndSet(p, base), 0u);
  });
}

TEST_F(SysvTest, ShmSetWindowSurfaceAndSemantics) {
  int id = w.shm(0).Shmget(7, 1024, true).value();
  // Library-site only.
  EXPECT_EQ(w.shm(1).ShmSetWindow(id, 50 * msim::kMillisecond).error(), ShmErr::kAccess);
  EXPECT_EQ(w.shm(0).ShmSetWindow(999, 1).error(), ShmErr::kInval);
  EXPECT_EQ(w.shm(0).ShmSetWindow(id, -5).error(), ShmErr::kInval);
  EXPECT_EQ(w.shm(0).ShmSetWindow(id, 1, mmem::PageNum{9}).error(), ShmErr::kInval);
  // Whole-segment then per-page override.
  EXPECT_TRUE(w.shm(0).ShmSetWindow(id, 40 * msim::kMillisecond).ok());
  EXPECT_TRUE(w.shm(0).ShmSetWindow(id, 5 * msim::kMillisecond, mmem::PageNum{1}).ok());
  EXPECT_EQ(w.engine(0)->PageWindow(id, 0), 40 * msim::kMillisecond);
  EXPECT_EQ(w.engine(0)->PageWindow(id, 1), 5 * msim::kMillisecond);
}

TEST_F(SysvTest, BlockTransferRoundTripAcrossPages) {
  int id = w.shm(0).Shmget(7, 2048, true).value();
  std::vector<std::uint8_t> blob(700);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 13 + 1);
  }
  // Write a block straddling a page boundary at site 0; read it at site 1.
  AsProcess(0, [&](Process* p) -> Task<> {
    mmem::VAddr base = w.shm(0).Shmat(p, id).value();
    co_await w.shm(0).WriteBlock(p, base + 300, blob);
    co_return;
  });
  AsProcess(1, [&](Process* p) -> Task<> {
    mmem::VAddr base = w.shm(1).Shmat(p, id).value();
    std::vector<std::uint8_t> got =
        co_await w.shm(1).ReadBlock(p, base + 300, static_cast<std::uint32_t>(blob.size()));
    EXPECT_EQ(got, blob);
  });
}

TEST_F(SysvTest, TwoProcessesShareAtDifferentAddresses) {
  // Colocated processes map the same frames at different virtual addresses.
  int id = w.shm(0).Shmget(7, 512, true).value();
  AsProcess(0, [&](Process* p) -> Task<> {
    mmem::VAddr base = w.shm(0).Shmat(p, id, mmem::VAddr{0x50000000}).value();
    co_await w.shm(0).WriteWord(p, base + 8, 4242);
  });
  AsProcess(0, [&](Process* p) -> Task<> {
    mmem::VAddr base = w.shm(0).Shmat(p, id, mmem::VAddr{0x90000000}).value();
    EXPECT_EQ(co_await w.shm(0).ReadWord(p, base + 8), 4242u);
  });
}

TEST_F(SysvTest, ResidentPageAccessesDoNotAllocate) {
  // A hit completes inside co_await: no coroutine frame, no heap traffic.
  int id = w.shm(0).Shmget(7, 512, true).value();
  std::size_t allocations = 0;
  std::uint32_t sum = 0;
  AsProcess(0, [&](Process* p) -> Task<> {
    auto& shm = w.shm(0);
    mmem::VAddr base = shm.Shmat(p, id).value();
    co_await shm.WriteWord(p, base, 1);  // faults the page in writable
    const std::size_t before = t_heap_allocations;
    for (std::uint32_t i = 0; i < 200; ++i) {
      co_await shm.WriteWord(p, base + 4, i);
      sum += co_await shm.ReadWord(p, base + 4);
      sum += co_await shm.TestAndSet(p, base + 8);
      co_await shm.WriteByte(p, base + 12, static_cast<std::uint8_t>(i));
      sum += co_await shm.ReadByte(p, base + 12);
    }
    allocations = t_heap_allocations - before;
  });
  EXPECT_EQ(allocations, 0u);
  // sum(i) + 0 + 199 * 1 + sum(i): the reads saw what was written.
  EXPECT_EQ(sum, 2u * (199u * 200u / 2u) + 199u);
}

TEST_F(SysvTest, AccessHookFiresOncePerWordAccessInProgramOrder) {
  using Kind = msysv::ShmSystem::AccessKind;
  std::vector<msysv::ShmSystem::AccessEvent> events;
  for (int s = 0; s < 2; ++s) {
    w.shm(s).SetAccessHook(
        [&](const msysv::ShmSystem::AccessEvent& ev) { events.push_back(ev); });
  }
  int id = w.shm(0).Shmget(7, 512, true).value();
  int pid1 = -1;
  int pid0 = -1;
  // Site 1 write-misses to the library at site 0, then hits.
  AsProcess(1, [&](Process* p) -> Task<> {
    auto& shm = w.shm(1);
    pid1 = p->pid;
    mmem::VAddr base = shm.Shmat(p, id).value();
    co_await shm.WriteWord(p, base + 8, 7);
    EXPECT_EQ(co_await shm.ReadWord(p, base + 8), 7u);
    EXPECT_EQ(co_await shm.TestAndSet(p, base + 12), 0u);
    co_await shm.WriteByte(p, base + 20, 0x5A);
    EXPECT_EQ(co_await shm.ReadByte(p, base + 20), 0x5A);
    EXPECT_EQ(co_await shm.ReadWord(p, base + 12), 1u);
  });
  EXPECT_EQ(w.engine(1)->stats().write_faults, 1u);
  EXPECT_EQ(w.engine(1)->stats().read_faults, 0u);
  // Site 0 read-misses on the page site 1 now holds, then write-misses.
  AsProcess(0, [&](Process* p) -> Task<> {
    auto& shm = w.shm(0);
    pid0 = p->pid;
    mmem::VAddr base = shm.Shmat(p, id).value();
    EXPECT_EQ(co_await shm.ReadWord(p, base + 8), 7u);
    EXPECT_EQ(co_await shm.ReadByte(p, base + 20), 0x5A);
    co_await shm.WriteWord(p, base + 16, 9);
    EXPECT_EQ(co_await shm.ReadWord(p, base + 16), 9u);
  });
  EXPECT_EQ(w.engine(0)->stats().read_faults, 1u);
  EXPECT_EQ(w.engine(0)->stats().write_faults, 1u);

  struct Want {
    int site;
    int pid;
    Kind kind;
    int offset;
    std::uint32_t value;
  };
  const std::vector<Want> want = {
      {1, pid1, Kind::kWrite, 8, 7}, {1, pid1, Kind::kRead, 8, 7},
      {1, pid1, Kind::kRmw, 12, 0},  {1, pid1, Kind::kRead, 12, 1},
      {0, pid0, Kind::kRead, 8, 7},  {0, pid0, Kind::kWrite, 16, 9},
      {0, pid0, Kind::kRead, 16, 9},
  };
  ASSERT_EQ(events.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(events[i].site, want[i].site);
    EXPECT_EQ(events[i].pid, want[i].pid);
    EXPECT_EQ(events[i].seg, id);
    EXPECT_EQ(events[i].page, 0);
    EXPECT_EQ(events[i].kind, want[i].kind);
    EXPECT_EQ(events[i].offset, want[i].offset);
    EXPECT_EQ(events[i].value, want[i].value);
  }
}

}  // namespace
