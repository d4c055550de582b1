// Tests for the Li/Hudak baseline protocol: coherence through the same
// System V surface, ownership transfer, copyset invalidation, and a
// like-for-like run against Mirage.
#include <gtest/gtest.h>

#include <memory>

#include "src/baseline/li_engine.h"
#include "src/sysv/world.h"

namespace {

using mos::Priority;
using mos::Process;
using msim::kSecond;
using msim::Task;
using msysv::World;
using msysv::WorldOptions;

WorldOptions LiOptions() {
  WorldOptions opts;
  opts.backend_factory = [](mos::Kernel* k, mirage::SegmentRegistry* reg,
                            mtrace::Tracer*) -> std::unique_ptr<mmem::DsmBackend> {
    return std::make_unique<mbase::LiEngine>(k, reg);
  };
  return opts;
}

mbase::LiEngine* Li(World& w, int site) {
  return dynamic_cast<mbase::LiEngine*>(&w.backend(site));
}

TEST(Baseline, SingleSiteReadWrite) {
  World w(1, LiOptions());
  int id = w.shm(0).Shmget(1, 512, true).value();
  bool done = false;
  w.kernel(0).Spawn("p", Priority::kUser, [&](Process* p) -> Task<> {
    auto& shm = w.shm(0);
    mmem::VAddr base = shm.Shmat(p, id).value();
    co_await shm.WriteWord(p, base, 99);
    EXPECT_EQ(co_await shm.ReadWord(p, base), 99u);
    done = true;
  });
  ASSERT_TRUE(w.RunUntil([&] { return done; }, 5 * kSecond));
}

TEST(Baseline, CrossSiteReadYourWrites) {
  World w(2, LiOptions());
  int id = w.shm(0).Shmget(1, 512, true).value();
  bool done = false;
  w.kernel(0).Spawn("writer", Priority::kUser, [&](Process* p) -> Task<> {
    auto& shm = w.shm(0);
    mmem::VAddr base = shm.Shmat(p, id).value();
    co_await shm.WriteWord(p, base, 31337);
    co_return;
  });
  w.kernel(1).Spawn("reader", Priority::kUser, [&](Process* p) -> Task<> {
    auto& shm = w.shm(1);
    mmem::VAddr base = shm.Shmat(p, id).value();
    for (;;) {
      std::uint32_t loop_v = co_await shm.ReadWord(p, base);
      if (loop_v == 31337u) {
        break;
      }
      co_await w.kernel(1).Yield(p);
    }
    done = true;
  });
  ASSERT_TRUE(w.RunUntil([&] { return done; }, 30 * kSecond));
}

TEST(Baseline, OwnershipMovesToLastWriter) {
  World w(3, LiOptions());
  int id = w.shm(0).Shmget(1, 512, true).value();
  auto write_at = [&](int site, std::uint32_t v) {
    bool done = false;
    w.kernel(site).Spawn("w", Priority::kUser, [&, site, v](Process* p) -> Task<> {
      auto& shm = w.shm(site);
      mmem::VAddr base = shm.Shmat(p, id).value();
      co_await shm.WriteWord(p, base, v);
      done = true;
    });
    EXPECT_TRUE(w.RunUntil([&] { return done; }, 30 * kSecond));
    w.RunFor(100 * msim::kMillisecond);
  };
  write_at(1, 10);
  write_at(2, 20);
  EXPECT_GE(Li(w, 1)->stats().write_faults, 1u);
  EXPECT_GE(Li(w, 2)->stats().write_faults, 1u);
  // The new writer sees the old writer's value before overwriting (verified
  // by a read-back at a third site).
  bool checked = false;
  w.kernel(0).Spawn("check", Priority::kUser, [&](Process* p) -> Task<> {
    auto& shm = w.shm(0);
    mmem::VAddr base = shm.Shmat(p, id).value();
    EXPECT_EQ(co_await shm.ReadWord(p, base), 20u);
    checked = true;
  });
  ASSERT_TRUE(w.RunUntil([&] { return checked; }, 30 * kSecond));
}

TEST(Baseline, WriteInvalidatesWholeCopyset) {
  World w(4, LiOptions());
  int id = w.shm(0).Shmget(1, 512, true).value();
  int readers_done = 0;
  // Build a 3-reader copyset.
  for (int s = 1; s <= 3; ++s) {
    w.kernel(s).Spawn("r", Priority::kUser, [&, s](Process* p) -> Task<> {
      auto& shm = w.shm(s);
      mmem::VAddr base = shm.Shmat(p, id).value();
      (void)co_await shm.ReadWord(p, base);
      ++readers_done;
    });
  }
  ASSERT_TRUE(w.RunUntil([&] { return readers_done == 3; }, 30 * kSecond));
  w.RunFor(100 * msim::kMillisecond);
  // A write from site 0 invalidates every reader before completing.
  bool wrote = false;
  w.kernel(0).Spawn("w", Priority::kUser, [&](Process* p) -> Task<> {
    auto& shm = w.shm(0);
    mmem::VAddr base = shm.Shmat(p, id).value();
    co_await shm.WriteWord(p, base, 5);
    wrote = true;
  });
  ASSERT_TRUE(w.RunUntil([&] { return wrote; }, 30 * kSecond));
  w.RunFor(100 * msim::kMillisecond);
  // Re-read from one reader: it must fault again (its copy was invalidated)
  // and must observe the new value.
  bool reread = false;
  std::uint64_t faults_before = Li(w, 2)->stats().read_faults;
  w.kernel(2).Spawn("rr", Priority::kUser, [&](Process* p) -> Task<> {
    auto& shm = w.shm(2);
    mmem::VAddr base = shm.Shmat(p, id).value();
    EXPECT_EQ(co_await shm.ReadWord(p, base), 5u);
    reread = true;
  });
  ASSERT_TRUE(w.RunUntil([&] { return reread; }, 30 * kSecond));
  EXPECT_EQ(Li(w, 2)->stats().read_faults, faults_before + 1);
}

TEST(Baseline, UpgradeInPlaceWhenOwnerWrites) {
  World w(2, LiOptions());
  int id = w.shm(0).Shmget(1, 512, true).value();
  bool done = false;
  w.kernel(1).Spawn("p", Priority::kUser, [&](Process* p) -> Task<> {
    auto& shm = w.shm(1);
    mmem::VAddr base = shm.Shmat(p, id).value();
    (void)co_await shm.ReadWord(p, base);  // becomes owner via first checkout
    co_await shm.WriteWord(p, base, 1);    // upgrade, no transfer
    done = true;
  });
  ASSERT_TRUE(w.RunUntil([&] { return done; }, 30 * kSecond));
  w.RunFor(100 * msim::kMillisecond);
  EXPECT_GE(Li(w, 1)->stats().upgrades, 1u);
}

TEST(Baseline, DeterministicAcrossRuns) {
  auto run = [] {
    World w(2, LiOptions());
    int id = w.shm(0).Shmget(1, 512, true).value();
    bool done = false;
    w.kernel(1).Spawn("p", Priority::kUser, [&](Process* p) -> Task<> {
      auto& shm = w.shm(1);
      mmem::VAddr base = shm.Shmat(p, id).value();
      for (std::uint32_t i = 0; i < 10; ++i) {
        co_await shm.WriteWord(p, base + 4 * (i % 8), i);
      }
      done = true;
    });
    w.RunUntil([&] { return done; }, 30 * kSecond);
    return std::make_pair(w.sim().Now(), w.network().stats().packets);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
