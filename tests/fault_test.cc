// Fault injection and protocol-level recovery (DESIGN.md "Failure model").
//
// Mirage's paper assumes Locus keeps every site alive (§7.1); these tests
// exercise the extension: crash / pause / partition faults driven by a
// deterministic FaultPlan, with the protocol recovering via request
// timeouts + backoff, degraded ack collection (crashed holders forgiven),
// and EIDRM-style failure surfaced to the application when the library or
// clock site is gone.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/mirage/invariants.h"
#include "src/sysv/world.h"

namespace {

using mfault::FaultPlan;
using mos::Priority;
using mos::Process;
using msim::kMillisecond;
using msim::kSecond;
using msim::Task;
using msysv::World;
using msysv::WorldOptions;

// Recovery timeouts for faulted worlds. The defaults (0 = wait forever) are
// the paper's liveness assumption; every fault test opts into recovery.
void EnableRecovery(WorldOptions& opts) {
  opts.protocol.request_timeout_us = 100 * kMillisecond;
  opts.protocol.max_request_attempts = 3;
  opts.protocol.ack_timeout_us = 100 * kMillisecond;
  opts.protocol.op_timeout_us = 1 * kSecond;
}

struct FaultTest : public ::testing::Test {
  void Boot(int sites, WorldOptions opts) {
    w = std::make_unique<World>(sites, std::move(opts));
    shmid = w->shm(0).Shmget(1, 2048, true).value();
  }
  std::unique_ptr<World> w;
  int shmid = -1;
};

// Acceptance scenario: crash a site that is neither the library nor the
// clock site mid-run. The survivors' ping-pong finishes; the crashed
// reader's copy is invalidated in degraded mode (its ack forgiven).
TEST_F(FaultTest, CrashBystanderSitePingPongCompletes) {
  WorldOptions opts;
  EnableRecovery(opts);
  opts.faults.CrashAt(20 * kMillisecond, 2);
  Boot(3, opts);
  constexpr int kLaps = 30;
  int finished = 0;
  // Sites 0 (library; faults first, so also clock site) and 1 pass a token.
  for (int s = 0; s < 2; ++s) {
    w->kernel(s).Spawn("pingpong", Priority::kUser,
                       [this, s, &finished](Process* p) -> Task<> {
      auto& shm = w->shm(s);
      mmem::VAddr base = shm.Shmat(p, shmid).value();
      for (int lap = 0; lap < kLaps; ++lap) {
        std::uint32_t my_turn = static_cast<std::uint32_t>(lap * 2 + s);
        for (;;) {
          if (co_await shm.ReadWord(p, base) == my_turn) {
            break;
          }
          co_await w->kernel(s).Yield(p);
        }
        co_await shm.WriteWord(p, base, my_turn + 1);
        co_await w->kernel(s).Compute(p, 500);
      }
      ++finished;
    });
  }
  // Site 2 is a bystander reader: it acquires a read copy, then is crashed.
  w->kernel(2).Spawn("bystander", Priority::kUser, [this](Process* p) -> Task<> {
    auto& shm = w->shm(2);
    co_await w->kernel(2).SleepFor(p, 5 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    for (;;) {
      (void)co_await shm.ReadWord(p, base);
      co_await w->kernel(2).SleepFor(p, 2 * kMillisecond);
    }
  });
  ASSERT_TRUE(w->RunUntil([&] { return finished == 2; }, 120 * kSecond));
  EXPECT_TRUE(w->kernel(2).halted());
  EXPECT_EQ(w->faults()->stats().crashes, 1u);
  // The crashed reader's copy was purged without its ack.
  std::uint64_t forgiven = 0;
  for (int s = 0; s < 3; ++s) {
    forgiven += w->engine(s)->stats().degraded_acks +
                w->engine(s)->stats().degraded_invalidations;
  }
  EXPECT_GE(forgiven, 1u);
  // Survivors made full progress: every token increment happened.
  bool checked = false;
  w->kernel(0).Spawn("check", Priority::kUser, [this, &checked](Process* p) -> Task<> {
    auto& shm = w->shm(0);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    EXPECT_EQ(co_await shm.ReadWord(p, base), 2 * kLaps);
    checked = true;
  });
  ASSERT_TRUE(w->RunUntil([&] { return checked; }, 10 * kSecond));
}

// Focused version of the degraded-invalidation path: a reader holds a copy,
// crashes, and the next writer's invalidation completes by forgiving the
// crashed site. Later readers still see the new value.
TEST_F(FaultTest, CrashedReaderInvalidatedInDegradedMode) {
  WorldOptions opts;
  EnableRecovery(opts);
  opts.faults.CrashAt(50 * kMillisecond, 2);
  Boot(3, opts);
  bool wrote = false;
  bool read_back = false;
  w->kernel(0).Spawn("writer", Priority::kUser, [this, &wrote](Process* p) -> Task<> {
    auto& shm = w->shm(0);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    co_await shm.WriteWord(p, base, 1);  // first requester: site 0 is clock site
    co_await w->kernel(0).SleepFor(p, 100 * kMillisecond);
    // Site 2 took a copy, then crashed; this upgrade must not hang on it.
    co_await shm.WriteWord(p, base, 2);
    wrote = true;
  });
  w->kernel(2).Spawn("doomed-reader", Priority::kUser, [this](Process* p) -> Task<> {
    auto& shm = w->shm(2);
    co_await w->kernel(2).SleepFor(p, 10 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    EXPECT_EQ(co_await shm.ReadWord(p, base), 1u);
    co_await w->kernel(2).SleepFor(p, 10 * kSecond);  // crashed long before this
  });
  w->kernel(1).Spawn("late-reader", Priority::kUser, [this, &read_back](Process* p) -> Task<> {
    auto& shm = w->shm(1);
    co_await w->kernel(1).SleepFor(p, 400 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    EXPECT_EQ(co_await shm.ReadWord(p, base), 2u);
    read_back = true;
  });
  ASSERT_TRUE(w->RunUntil([&] { return wrote && read_back; }, 60 * kSecond));
  EXPECT_GE(w->engine(0)->stats().degraded_invalidations +
                w->engine(0)->stats().degraded_acks,
            1u);
  EXPECT_GE(w->network().stats().dropped_site_down, 1u);
}

// Crashing the library site now triggers failover: the sole survivor elects
// itself library under a bumped epoch and reconstructs the directory. The
// crashed library held the only (never-granted) state, so the page comes
// back lost and the fault fails fast with EIDRM — but through the rebuilt
// directory, not a timeout hang.
TEST_F(FaultTest, LibraryCrashSoleSurvivorElectsAndCondemnsLostPages) {
  WorldOptions opts;
  EnableRecovery(opts);
  opts.faults.CrashAt(1 * kMillisecond, 0);
  Boot(2, opts);
  bool caught = false;
  w->kernel(1).Spawn("client", Priority::kUser, [this, &caught](Process* p) -> Task<> {
    auto& shm = w->shm(1);
    co_await w->kernel(1).SleepFor(p, 10 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    try {
      (void)co_await shm.ReadWord(p, base);
      ADD_FAILURE() << "fault on a page that died with the library succeeded";
    } catch (const msysv::PageFaultError& e) {
      EXPECT_EQ(e.err(), msysv::ShmErr::kIdRemoved);
      EXPECT_EQ(e.status(), mmem::FaultStatus::kPageLost);
      caught = true;
    }
  });
  ASSERT_TRUE(w->RunUntil([&] { return caught; }, 60 * kSecond));
  const mirage::EngineStats& es = w->engine(1)->stats();
  EXPECT_GE(es.request_timeouts, 1u);  // the timeout path noticed the orphan
  EXPECT_EQ(es.elections_won, 1u);
  EXPECT_EQ(es.recoveries_completed, 1u);
  EXPECT_GE(es.pages_lost_in_recovery, 1u);
  EXPECT_EQ(es.pages_recovered, 0u);  // the survivor held no copies
  EXPECT_GE(es.faults_failed, 1u);
  EXPECT_EQ(w->engine(1)->KnownEpoch(shmid), 1u);
  EXPECT_GE(w->network().stats().dropped_site_down, 1u);
}

// Crashing the clock site of a page whose only copy lived there: the
// surviving library rebuilds the directory in place (same site, new epoch).
// No copy survives anywhere, so the page is condemned and the blocked
// requester gets EIDRM, not a hang; subsequent faults fail fast.
TEST_F(FaultTest, ClockSiteCrashReconstructsAndCondemnsOrphanedPage) {
  WorldOptions opts;
  EnableRecovery(opts);
  opts.faults.CrashAt(200 * kMillisecond, 1);
  Boot(3, opts);
  bool primed = false;
  int caught = 0;
  // Site 1 faults first, so it becomes the page's clock site — then crashes.
  w->kernel(1).Spawn("clock-to-be", Priority::kUser, [this, &primed](Process* p) -> Task<> {
    auto& shm = w->shm(1);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    (void)co_await shm.ReadWord(p, base);
    primed = true;
    co_await w->kernel(1).SleepFor(p, 10 * kSecond);  // crashed at 200 ms
  });
  w->kernel(2).Spawn("writer", Priority::kUser, [this, &caught](Process* p) -> Task<> {
    auto& shm = w->shm(2);
    co_await w->kernel(2).SleepFor(p, 400 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    try {
      co_await shm.WriteWord(p, base, 9);
      ADD_FAILURE() << "write to a page whose only copy crashed succeeded";
    } catch (const msysv::PageFaultError& e) {
      EXPECT_EQ(e.err(), msysv::ShmErr::kIdRemoved);
      ++caught;
    }
    // The page is condemned; a retry fails fast rather than re-timing-out.
    try {
      (void)co_await shm.ReadWord(p, base);
      ADD_FAILURE() << "read of a lost page succeeded";
    } catch (const msysv::PageFaultError& e) {
      EXPECT_EQ(e.status(), mmem::FaultStatus::kPageLost);
      ++caught;
    }
  });
  ASSERT_TRUE(w->RunUntil([&] { return primed && caught == 2; }, 60 * kSecond));
  const mirage::EngineStats& lib = w->engine(0)->stats();
  EXPECT_EQ(lib.elections_won, 0u);  // in-place rebuild, not an election
  EXPECT_EQ(lib.recoveries_completed, 1u);
  EXPECT_GE(lib.pages_lost_in_recovery, 1u);
  EXPECT_GE(lib.fail_notices_sent, 1u);
  EXPECT_GE(w->engine(2)->stats().fail_notices_received, 1u);
  EXPECT_GE(w->engine(2)->stats().faults_failed, 2u);
  EXPECT_EQ(w->engine(0)->KnownEpoch(shmid), 1u);
}

// Tentpole acceptance: the library site of a segment crashes mid-ping-pong.
// The surviving attached sites elect the lowest live site as successor,
// the directory is reconstructed from their copies, and the ping-pong
// completes every lap — no EIDRM, no hang.
TEST_F(FaultTest, LibraryCrashSurvivorsElectAndCompletePingPong) {
  WorldOptions opts;
  EnableRecovery(opts);
  opts.faults.CrashAt(60 * kMillisecond, 2);
  w = std::make_unique<World>(3, std::move(opts));
  // Library at site 2 — a pure controller, holding no copies of its own.
  shmid = w->shm(2).Shmget(1, 2048, true).value();
  constexpr int kLaps = 25;
  int finished = 0;
  for (int s = 0; s < 2; ++s) {
    w->kernel(s).Spawn("pingpong", Priority::kUser,
                       [this, s, &finished](Process* p) -> Task<> {
      auto& shm = w->shm(s);
      mmem::VAddr base = shm.Shmat(p, shmid).value();
      for (int lap = 0; lap < kLaps; ++lap) {
        std::uint32_t my_turn = static_cast<std::uint32_t>(lap * 2 + s);
        for (;;) {
          if (co_await shm.ReadWord(p, base) == my_turn) {
            break;
          }
          co_await w->kernel(s).Yield(p);
        }
        co_await shm.WriteWord(p, base, my_turn + 1);
        co_await w->kernel(s).Compute(p, 500);
      }
      ++finished;
    });
  }
  ASSERT_TRUE(w->RunUntil([&] { return finished == 2; }, 120 * kSecond));
  EXPECT_TRUE(w->kernel(2).halted());
  // Site 0 is the lowest live attached site: it won the (only) election.
  EXPECT_EQ(w->engine(0)->stats().elections_won, 1u);
  EXPECT_EQ(w->engine(1)->stats().elections_won, 0u);
  EXPECT_EQ(w->engine(0)->stats().recoveries_completed, 1u);
  EXPECT_GE(w->engine(0)->stats().pages_recovered, 1u);
  EXPECT_EQ(w->engine(0)->KnownEpoch(shmid), 1u);
  EXPECT_EQ(w->engine(1)->KnownEpoch(shmid), 1u);
  // The token page survived the failover: every increment happened.
  bool checked = false;
  w->kernel(0).Spawn("check", Priority::kUser, [this, &checked](Process* p) -> Task<> {
    auto& shm = w->shm(0);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    EXPECT_EQ(co_await shm.ReadWord(p, base), 2 * kLaps);
    checked = true;
  });
  ASSERT_TRUE(w->RunUntil([&] { return checked; }, 10 * kSecond));
}

// Clock-site-only crash with a surviving reader elsewhere: the library's
// in-place reconstruction re-homes the clock to the freshest surviving
// copy, and the page keeps serving — reads and writes succeed afterwards.
TEST_F(FaultTest, ClockSiteCrashTransfersClockToFreshestSurvivingCopy) {
  WorldOptions opts;
  EnableRecovery(opts);
  opts.faults.CrashAt(200 * kMillisecond, 1);
  Boot(4, opts);
  bool primed = false;
  bool wrote = false;
  // Site 1 reads first (clock site), site 2 reads second (plain reader).
  w->kernel(1).Spawn("clock-to-be", Priority::kUser, [this, &primed](Process* p) -> Task<> {
    auto& shm = w->shm(1);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    (void)co_await shm.ReadWord(p, base);
    primed = true;
    co_await w->kernel(1).SleepFor(p, 10 * kSecond);  // crashed at 200 ms
  });
  w->kernel(2).Spawn("survivor-reader", Priority::kUser, [this](Process* p) -> Task<> {
    auto& shm = w->shm(2);
    co_await w->kernel(2).SleepFor(p, 50 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    (void)co_await shm.ReadWord(p, base);
  });
  w->kernel(3).Spawn("late-writer", Priority::kUser, [this, &wrote](Process* p) -> Task<> {
    auto& shm = w->shm(3);
    co_await w->kernel(3).SleepFor(p, 400 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    co_await shm.WriteWord(p, base, 77);  // must not hang or fail
    EXPECT_EQ(co_await shm.ReadWord(p, base), 77u);
    wrote = true;
  });
  ASSERT_TRUE(w->RunUntil([&] { return primed && wrote; }, 60 * kSecond));
  const mirage::EngineStats& lib = w->engine(0)->stats();
  EXPECT_EQ(lib.elections_won, 0u);
  EXPECT_EQ(lib.recoveries_completed, 1u);
  EXPECT_GE(lib.pages_recovered, 1u);  // site 2's copy carried the page over
  EXPECT_EQ(lib.pages_lost_in_recovery, 0u);
  EXPECT_EQ(lib.ops_failed, 0u);  // recovery pre-empted any failing op
  EXPECT_EQ(w->engine(2)->stats().recovery_replies_sent, 1u);
}

// Library crash while an invalidation is in flight to a paused reader: the
// held pre-crash invalidation is fenced by its stale epoch when the reader
// resumes, so it cannot destroy a copy the reconstructed directory counts
// on, and the blocked writer completes under the new epoch.
TEST_F(FaultTest, CrashDuringInFlightInvalidationIsEpochFenced) {
  WorldOptions opts;
  EnableRecovery(opts);
  opts.faults.PauseAt(90 * kMillisecond, 3)
      .CrashAt(150 * kMillisecond, 0)
      .ResumeAt(400 * kMillisecond, 3);
  Boot(4, opts);
  bool wrote = false;
  // Sites 2 and 3 read (site 2 first: clock site). Site 1 then writes; the
  // invalidation to paused site 3 is held when the library (site 0) dies.
  for (int s : {2, 3}) {
    w->kernel(s).Spawn("reader", Priority::kUser, [this, s](Process* p) -> Task<> {
      auto& shm = w->shm(s);
      co_await w->kernel(s).SleepFor(p, s == 2 ? 5 * kMillisecond : 20 * kMillisecond);
      mmem::VAddr base = shm.Shmat(p, shmid).value();
      (void)co_await shm.ReadWord(p, base);
    });
  }
  w->kernel(1).Spawn("writer", Priority::kUser, [this, &wrote](Process* p) -> Task<> {
    auto& shm = w->shm(1);
    co_await w->kernel(1).SleepFor(p, 100 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    co_await shm.WriteWord(p, base, 5);
    wrote = true;
  });
  ASSERT_TRUE(w->RunUntil([&] { return wrote; }, 120 * kSecond));
  // Site 1 is the lowest live attached site when the library dies.
  EXPECT_EQ(w->engine(1)->stats().elections_won, 1u);
  EXPECT_EQ(w->engine(1)->stats().recoveries_completed, 1u);
  EXPECT_GE(w->engine(1)->stats().pages_recovered, 1u);
  // The resumed reader fenced the stale (pre-crash epoch) invalidation.
  std::uint64_t fenced = 0;
  for (int s = 1; s < 4; ++s) {
    fenced += w->engine(s)->stats().stale_epoch_drops;
  }
  EXPECT_GE(fenced, 1u);
  EXPECT_EQ(w->engine(3)->KnownEpoch(shmid), 1u);
}

// Back-to-back crashes: the original library dies, the elected successor
// dies mid-tenure, and a second election (epoch 2) re-homes the segment
// again. The last survivor's copies keep the data alive throughout.
TEST_F(FaultTest, BackToBackCrashesForceSecondElection) {
  WorldOptions opts;
  EnableRecovery(opts);
  opts.faults.CrashAt(100 * kMillisecond, 0).CrashAt(400 * kMillisecond, 1);
  Boot(3, opts);
  bool seeded = false;
  bool done = false;
  // Site 1 attaches early so it is electable; site 2 holds the data.
  w->kernel(1).Spawn("first-successor", Priority::kUser, [this, &seeded](Process* p) -> Task<> {
    auto& shm = w->shm(1);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    (void)co_await shm.ReadWord(p, base);
    seeded = true;
    co_await w->kernel(1).SleepFor(p, 10 * kSecond);  // crashed at 400 ms
  });
  w->kernel(2).Spawn("survivor", Priority::kUser, [this, &done](Process* p) -> Task<> {
    auto& shm = w->shm(2);
    co_await w->kernel(2).SleepFor(p, 30 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    co_await shm.WriteWord(p, base, 11);  // site 2 becomes the writer
    co_await w->kernel(2).SleepFor(p, 600 * kMillisecond);  // outlive both crashes
    co_await shm.WriteWord(p, base, 12);  // served by the epoch-2 library
    EXPECT_EQ(co_await shm.ReadWord(p, base), 12u);
    done = true;
  });
  ASSERT_TRUE(w->RunUntil([&] { return seeded && done; }, 120 * kSecond));
  EXPECT_EQ(w->engine(1)->stats().elections_won, 1u);  // epoch 1, died in office
  EXPECT_EQ(w->engine(2)->stats().elections_won, 1u);  // epoch 2
  EXPECT_EQ(w->engine(2)->KnownEpoch(shmid), 2u);
  EXPECT_GE(w->engine(2)->stats().pages_recovered, 1u);
}

// Regression (pause+crash interaction): packets held for a paused site are
// dropped — and counted — when the site crashes, and a later stale resume
// replays nothing.
TEST_F(FaultTest, CrashWhilePausedDropsHeldPacketsInsteadOfReplaying) {
  WorldOptions opts;
  EnableRecovery(opts);
  opts.faults.PauseAt(30 * kMillisecond, 1)
      .CrashAt(80 * kMillisecond, 1)
      .ResumeAt(120 * kMillisecond, 1);
  Boot(2, opts);
  bool wrote = false;
  w->kernel(0).Spawn("writer", Priority::kUser, [this, &wrote](Process* p) -> Task<> {
    auto& shm = w->shm(0);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    co_await shm.WriteWord(p, base, 1);  // site 0: writer and clock site
    co_await w->kernel(0).SleepFor(p, 50 * kMillisecond);
    // Site 1 holds a read copy and is paused: the invalidation below is
    // held, then dies with the site at 80 ms. The ack is forgiven.
    co_await shm.WriteWord(p, base, 2);
    wrote = true;
  });
  w->kernel(1).Spawn("doomed-reader", Priority::kUser, [this](Process* p) -> Task<> {
    auto& shm = w->shm(1);
    co_await w->kernel(1).SleepFor(p, 10 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    EXPECT_EQ(co_await shm.ReadWord(p, base), 1u);
    co_await w->kernel(1).SleepFor(p, 10 * kSecond);  // crashed long before
  });
  ASSERT_TRUE(w->RunUntil([&] { return wrote; }, 60 * kSecond));
  const mfault::FaultInjectorStats& fs = w->faults()->stats();
  EXPECT_EQ(fs.pauses, 1u);
  EXPECT_EQ(fs.crashes, 1u);
  EXPECT_GE(fs.held_dropped_on_crash, 1u);
  // The resume found the site crashed, not paused: a no-op, no replay.
  EXPECT_EQ(fs.resumes, 0u);
  EXPECT_GE(w->network().stats().packets_held, 1u);
  EXPECT_GE(w->engine(0)->stats().degraded_acks +
                w->engine(0)->stats().degraded_invalidations,
            1u);
}

// A paused site holds inbound packets in order and releases them at resume:
// the client's fault is delayed, not failed, and duplicate (re-sent)
// requests are absorbed harmlessly.
TEST_F(FaultTest, PauseResumeDelaysButCompletes) {
  WorldOptions opts;
  EnableRecovery(opts);
  opts.faults.PauseAt(5 * kMillisecond, 0).ResumeAt(250 * kMillisecond, 0);
  Boot(2, opts);
  bool wrote = false;
  bool read = false;
  msim::Time read_done_at = 0;
  w->kernel(0).Spawn("writer", Priority::kUser, [this, &wrote](Process* p) -> Task<> {
    auto& shm = w->shm(0);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    co_await shm.WriteWord(p, base, 42);
    wrote = true;
  });
  w->kernel(1).Spawn("reader", Priority::kUser,
                     [this, &read, &read_done_at](Process* p) -> Task<> {
    auto& shm = w->shm(1);
    co_await w->kernel(1).SleepFor(p, 10 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    EXPECT_EQ(co_await shm.ReadWord(p, base), 42u);
    read_done_at = w->sim().Now();
    read = true;
  });
  ASSERT_TRUE(w->RunUntil([&] { return wrote && read; }, 60 * kSecond));
  // The read could not finish before the library resumed.
  EXPECT_GE(read_done_at, 250 * kMillisecond);
  EXPECT_GE(w->network().stats().packets_held, 1u);
  EXPECT_EQ(w->faults()->stats().pauses, 1u);
  EXPECT_EQ(w->faults()->stats().resumes, 1u);
}

// With the virtual-circuit transport, a partition that heals is invisible
// to the protocol: frames dropped while the link was cut are retransmitted
// after the heal, and the fault completes with no recovery timeouts needed.
TEST_F(FaultTest, PartitionHealsTransparentlyUnderCircuits) {
  WorldOptions opts;
  mnet::CircuitOptions copts;
  copts.force_sequencing = true;
  copts.max_retransmits = 0;  // never give the circuit up
  opts.circuit = copts;
  opts.faults.PartitionAt(5 * kMillisecond, 0, 1).HealAt(300 * kMillisecond, 0, 1);
  Boot(2, opts);
  bool wrote = false;
  bool read = false;
  w->kernel(0).Spawn("writer", Priority::kUser, [this, &wrote](Process* p) -> Task<> {
    auto& shm = w->shm(0);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    co_await shm.WriteWord(p, base, 7);
    wrote = true;
  });
  w->kernel(1).Spawn("reader", Priority::kUser, [this, &read](Process* p) -> Task<> {
    auto& shm = w->shm(1);
    co_await w->kernel(1).SleepFor(p, 10 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    EXPECT_EQ(co_await shm.ReadWord(p, base), 7u);
    read = true;
  });
  ASSERT_TRUE(w->RunUntil([&] { return wrote && read; }, 60 * kSecond));
  const mnet::CircuitStats& cs = w->network().circuits()->stats();
  EXPECT_GE(cs.down_drops, 1u);
  EXPECT_GE(cs.retransmits, 1u);
  EXPECT_EQ(cs.circuits_failed, 0u);
  EXPECT_EQ(w->faults()->stats().partitions, 1u);
  EXPECT_EQ(w->faults()->stats().heals, 1u);
}

// The whole faulted run is bit-deterministic: two identical runs produce
// identical simulated end times and identical counters everywhere.
TEST_F(FaultTest, DeterministicAcrossIdenticalFaultedRuns) {
  auto run = [](std::vector<std::uint64_t>& out) {
    WorldOptions opts;
    EnableRecovery(opts);
    opts.faults.CrashAt(20 * kMillisecond, 2);
    World lw(3, opts);
    int lshmid = lw.shm(0).Shmget(1, 2048, true).value();
    int finished = 0;
    for (int s = 0; s < 2; ++s) {
      lw.kernel(s).Spawn("pp", Priority::kUser, [&lw, s, lshmid, &finished](Process* p) -> Task<> {
        auto& shm = lw.shm(s);
        mmem::VAddr base = shm.Shmat(p, lshmid).value();
        for (int lap = 0; lap < 10; ++lap) {
          std::uint32_t my_turn = static_cast<std::uint32_t>(lap * 2 + s);
          for (;;) {
            if (co_await shm.ReadWord(p, base) == my_turn) {
              break;
            }
            co_await lw.kernel(s).Yield(p);
          }
          co_await shm.WriteWord(p, base, my_turn + 1);
        }
        ++finished;
      });
    }
    lw.kernel(2).Spawn("by", Priority::kUser, [&lw, lshmid](Process* p) -> Task<> {
      auto& shm = lw.shm(2);
      co_await lw.kernel(2).SleepFor(p, 5 * kMillisecond);
      mmem::VAddr base = shm.Shmat(p, lshmid).value();
      for (;;) {
        (void)co_await shm.ReadWord(p, base);
        co_await lw.kernel(2).SleepFor(p, 2 * kMillisecond);
      }
    });
    ASSERT_TRUE(lw.RunUntil([&] { return finished == 2; }, 120 * kSecond));
    out.push_back(static_cast<std::uint64_t>(lw.sim().Now()));
    const mnet::NetworkStats& ns = lw.network().stats();
    out.push_back(ns.packets);
    out.push_back(ns.dropped_site_down);
    out.push_back(ns.payload_bytes);
    for (int s = 0; s < 3; ++s) {
      const mirage::EngineStats& es = lw.engine(s)->stats();
      out.push_back(es.read_faults);
      out.push_back(es.write_faults);
      out.push_back(es.pages_installed);
      out.push_back(es.request_timeouts);
      out.push_back(es.degraded_acks + es.degraded_invalidations);
      out.push_back(es.ops_failed);
    }
    out.push_back(lw.kernel(2).stats().packets_dropped_down);
  };
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  run(a);
  run(b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// A fault plan whose RecoverAt targets a site that is not crashed at that
// moment is rejected up front — by Validate, and by the world boot that
// schedules it.
TEST_F(FaultTest, RecoverAtTargetingLiveSiteThrows) {
  FaultPlan no_crash;
  no_crash.RecoverAt(100 * kMillisecond, 1);
  std::string err;
  EXPECT_FALSE(no_crash.Validate(2, &err));
  EXPECT_NE(err.find("not crashed"), std::string::npos) << err;

  FaultPlan too_early;  // the recover fires before the crash does
  too_early.RecoverAt(50 * kMillisecond, 1).CrashAt(100 * kMillisecond, 1);
  EXPECT_FALSE(too_early.Validate(2, &err));

  FaultPlan double_recover;
  double_recover.CrashAt(50 * kMillisecond, 1)
      .RecoverAt(100 * kMillisecond, 1)
      .RecoverAt(200 * kMillisecond, 1);
  EXPECT_FALSE(double_recover.Validate(2, &err));

  FaultPlan cycle;  // crash → recover → crash → recover is legal
  cycle.CrashAt(50 * kMillisecond, 1)
      .RecoverAt(100 * kMillisecond, 1)
      .CrashAt(200 * kMillisecond, 1)
      .RecoverAt(300 * kMillisecond, 1);
  EXPECT_TRUE(cycle.Validate(2, &err)) << err;

  WorldOptions opts;
  EnableRecovery(opts);
  opts.faults.RecoverAt(100 * kMillisecond, 1);
  EXPECT_THROW(World(2, std::move(opts)), std::invalid_argument);
}

// A fault plan that names a site the world does not have — as the target of
// any site event or as either end of a cut or heal — is rejected up front
// too, by Validate and by the world boot.
TEST_F(FaultTest, PlanNamingAMissingSiteThrows) {
  const msim::Time t = 50 * kMillisecond;
  std::vector<FaultPlan> bad(6);
  bad[0].CrashAt(t, 7);
  bad[1].CrashAt(t, -1);
  bad[2].PauseAt(t, 3).ResumeAt(2 * t, 3);
  bad[3].CrashAt(t, 3).RecoverAt(2 * t, 3);
  bad[4].PartitionAt(t, 0, 3);
  bad[5].PartitionAt(t, 0, 2).HealAt(2 * t, 3, 0);
  for (std::size_t i = 0; i < bad.size(); ++i) {
    std::string err;
    EXPECT_FALSE(bad[i].Validate(3, &err)) << "plan " << i;
    EXPECT_NE(err.find("names site"), std::string::npos) << "plan " << i << ": " << err;
    WorldOptions opts;
    EnableRecovery(opts);
    opts.faults = bad[i];
    EXPECT_THROW(World(3, std::move(opts)), std::invalid_argument) << "plan " << i;
  }

  FaultPlan edges;  // sites 0 and 2 are the ends of a 3-site world
  edges.CrashAt(t, 2).RecoverAt(2 * t, 2).PartitionAt(t, 0, 2).HealAt(2 * t, 2, 0);
  std::string err;
  EXPECT_TRUE(edges.Validate(3, &err)) << err;
  EXPECT_FALSE(edges.Validate(2, &err));
}

// Tentpole acceptance: k = 3 replication, a standby site crashes (degrading
// coverage) and later rejoins with amnesia. The rejoin announce triggers a
// re-spread that pulls the revived site back into the standby set, zero
// pages are lost, at least one page is resurrected to full coverage, and
// the invariant checker signs off on both coherence and k-replica coverage.
TEST_F(FaultTest, CrashThenRecoverRejoinsAndResurrects) {
  WorldOptions opts;
  EnableRecovery(opts);
  opts.protocol.replicas = 3;
  opts.faults.CrashAt(60 * kMillisecond, 1).RecoverAt(250 * kMillisecond, 1);
  Boot(3, opts);
  bool done = false;
  // Site 1 attaches before its crash — the rejoin announce covers segments
  // the site was using, so it must be on the attach list. The reader itself
  // dies with the site; only the attachment matters.
  w->kernel(1).Spawn("doomed-reader", Priority::kUser, [this](Process* p) -> Task<> {
    auto& shm = w->shm(1);
    co_await w->kernel(1).SleepFor(p, 10 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    (void)co_await shm.ReadWord(p, base);
    co_await w->kernel(1).SleepFor(p, 10 * kSecond);  // crashed at 60 ms
  });
  // Site 0 writes forever-ish: every committed version must re-spread to the
  // standby set, so traffic keeps flowing across the crash and the rejoin.
  w->kernel(0).Spawn("writer", Priority::kUser, [this, &done](Process* p) -> Task<> {
    auto& shm = w->shm(0);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    for (std::uint32_t i = 1; i <= 40; ++i) {
      co_await shm.WriteWord(p, base, i);
      co_await w->kernel(0).SleepFor(p, 20 * kMillisecond);
    }
    EXPECT_EQ(co_await shm.ReadWord(p, base), 40u);
    done = true;
  });
  ASSERT_TRUE(w->RunUntil([&] { return done; }, 120 * kSecond));
  w->RunFor(2 * kSecond);  // quiesce: let the rejoin re-spread settle

  const mfault::FaultInjectorStats& fs = w->faults()->stats();
  EXPECT_EQ(fs.crashes, 1u);
  EXPECT_EQ(fs.recoveries, 1u);
  EXPECT_EQ(fs.downtime_us, static_cast<msim::Duration>(190 * kMillisecond));
  EXPECT_FALSE(w->kernel(1).halted());

  std::uint64_t lost = 0;
  std::uint64_t respreads = 0;
  std::uint64_t resurrected = 0;
  std::uint64_t welcomes = 0;
  std::vector<mirage::Engine*> engines;
  for (int s = 0; s < 3; ++s) {
    const mirage::EngineStats& es = w->engine(s)->stats();
    lost += es.pages_lost_in_recovery;
    respreads += es.replica_respreads;
    resurrected += es.pages_resurrected;
    welcomes += es.rejoin_welcomes;
    engines.push_back(w->engine(s));
  }
  EXPECT_EQ(lost, 0u);
  EXPECT_GE(respreads, 1u);
  EXPECT_GE(resurrected, 1u);
  EXPECT_GE(welcomes, 1u);
  EXPECT_EQ(w->engine(1)->stats().rejoins, 1u);

  mirage::InvariantChecker checker(engines);
  mirage::InvariantReport full = checker.CheckFull(w->registry());
  EXPECT_TRUE(full.ok()) << (full.violations.empty() ? "" : full.violations[0]);
  mirage::InvariantReport coverage = checker.CheckReplicaCoverage(w->registry());
  EXPECT_TRUE(coverage.ok())
      << (coverage.violations.empty() ? "" : coverage.violations[0]);
}

// A standby that crashes mid-quorum-wait and rejoins BEFORE the ack-timeout
// re-examination fires must still be forgiven: the REPLICATE it owed an ack
// for died with the old incarnation, and the amnesiac reboot never saw it.
// A current-liveness check alone sees the site up again and waits until the
// op deadline — condemning the page and starving every requester behind the
// stuck commit. The crash-incarnation fence (Liveness::CrashedSince) shrinks
// the quorum to the survivors at the first re-exam instead.
TEST_F(FaultTest, RejoinBeforeAckTimeoutUnsticksQuorumWait) {
  WorldOptions opts;
  EnableRecovery(opts);
  opts.protocol.replicas = 2;
  // Stretch the re-exam period past the outage so the first ack-timeout
  // check lands AFTER the rejoin, when the standby is up but amnesiac.
  opts.protocol.ack_timeout_us = 300 * kMillisecond;
  opts.protocol.op_timeout_us = 2 * kSecond;
  opts.faults.CrashAt(45 * kMillisecond, 1).RecoverAt(145 * kMillisecond, 1);
  Boot(3, opts);
  bool done = false;
  // Site 1's first read triggers the grant-from-empty, whose commit
  // replicates to standbys {0, 1} (the library's local standby acks
  // immediately). The crash lands between the REPLICATE send and site 1's
  // ack, so the quorum wait straddles the outage.
  w->kernel(1).Spawn("doomed-reader", Priority::kUser, [this](Process* p) -> Task<> {
    auto& shm = w->shm(1);
    co_await w->kernel(1).SleepFor(p, 10 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    (void)co_await shm.ReadWord(p, base);
    co_await w->kernel(1).SleepFor(p, 10 * kSecond);  // crashed at 45 ms
  });
  // Site 0's writes queue behind the stuck commit (the page is busy under
  // it); their completion is the witness that the quorum wait unstuck.
  w->kernel(0).Spawn("writer", Priority::kUser, [this, &done](Process* p) -> Task<> {
    auto& shm = w->shm(0);
    co_await w->kernel(0).SleepFor(p, 30 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    for (std::uint32_t i = 1; i <= 10; ++i) {
      co_await shm.WriteWord(p, base, i);
      co_await w->kernel(0).SleepFor(p, 10 * kMillisecond);
    }
    EXPECT_EQ(co_await shm.ReadWord(p, base), 10u);
    done = true;
  });
  ASSERT_TRUE(w->RunUntil([&] { return done; }, 120 * kSecond));
  w->RunFor(2 * kSecond);  // quiesce

  EXPECT_EQ(w->faults()->stats().recoveries, 1u);
  EXPECT_EQ(w->engine(1)->stats().rejoins, 1u);
  std::uint64_t ops_failed = 0;
  std::uint64_t faults_failed = 0;
  std::uint64_t lost = 0;
  std::vector<mirage::Engine*> engines;
  for (int s = 0; s < 3; ++s) {
    const mirage::EngineStats& es = w->engine(s)->stats();
    ops_failed += es.ops_failed;
    faults_failed += es.faults_failed;
    lost += es.pages_lost_in_recovery;
    engines.push_back(w->engine(s));
  }
  EXPECT_EQ(ops_failed, 0u) << "the quorum wait never unstuck; the op deadline condemned the page";
  EXPECT_EQ(faults_failed, 0u);
  EXPECT_EQ(lost, 0u);

  mirage::InvariantChecker checker(engines);
  mirage::InvariantReport full = checker.CheckFull(w->registry());
  EXPECT_TRUE(full.ok()) << (full.violations.empty() ? "" : full.violations[0]);
}

// Revive after a partition: the site is cut off, crashes while partitioned,
// and rejoins after the link heals. The revived site's circuits were reset,
// so post-rejoin traffic flows without retransmit poisoning from the dead
// regime, and the run completes with the rejoined site serving again.
TEST_F(FaultTest, ReviveAfterPartition) {
  WorldOptions opts;
  EnableRecovery(opts);
  opts.protocol.replicas = 2;
  opts.faults.PartitionAt(30 * kMillisecond, 0, 1)
      .CrashAt(80 * kMillisecond, 1)
      .HealAt(120 * kMillisecond, 0, 1)
      .RecoverAt(300 * kMillisecond, 1);
  Boot(3, opts);
  bool done = false;
  bool revived_read = false;
  w->kernel(0).Spawn("writer", Priority::kUser, [this, &done](Process* p) -> Task<> {
    auto& shm = w->shm(0);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    for (std::uint32_t i = 1; i <= 30; ++i) {
      co_await shm.WriteWord(p, base, i);
      co_await w->kernel(0).SleepFor(p, 25 * kMillisecond);
    }
    done = true;
  });
  // A reader spawned into the revived kernel: rejoined sites must serve
  // fresh processes (the pre-crash ones died with the site).
  w->faults()->AddRecoverObserver([this, &revived_read](mnet::SiteId site) {
    if (site != 1) {
      return;
    }
    w->kernel(1).Spawn("reborn-reader", Priority::kUser,
                       [this, &revived_read](Process* p) -> Task<> {
      auto& shm = w->shm(1);
      co_await w->kernel(1).SleepFor(p, 50 * kMillisecond);
      mmem::VAddr base = shm.Shmat(p, shmid).value();
      EXPECT_GE(co_await shm.ReadWord(p, base), 1u);
      revived_read = true;
    });
  });
  ASSERT_TRUE(w->RunUntil([&] { return done && revived_read; }, 120 * kSecond));
  const mfault::FaultInjectorStats& fs = w->faults()->stats();
  EXPECT_EQ(fs.partitions, 1u);
  EXPECT_EQ(fs.heals, 1u);
  EXPECT_EQ(fs.crashes, 1u);
  EXPECT_EQ(fs.recoveries, 1u);
  EXPECT_EQ(w->engine(1)->stats().rejoins, 1u);
}

// Revive while another site is paused: the held-packet machinery and the
// rejoin handshake do not interfere. The paused site's packets replay at
// resume under a valid epoch, and the revived site re-admits cleanly.
TEST_F(FaultTest, ReviveWhileBystanderPaused) {
  WorldOptions opts;
  EnableRecovery(opts);
  opts.protocol.replicas = 2;
  opts.faults.CrashAt(60 * kMillisecond, 1)
      .PauseAt(100 * kMillisecond, 2)
      .RecoverAt(200 * kMillisecond, 1)
      .ResumeAt(400 * kMillisecond, 2);
  Boot(3, opts);
  bool done = false;
  w->kernel(0).Spawn("writer", Priority::kUser, [this, &done](Process* p) -> Task<> {
    auto& shm = w->shm(0);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    for (std::uint32_t i = 1; i <= 30; ++i) {
      co_await shm.WriteWord(p, base, i);
      co_await w->kernel(0).SleepFor(p, 25 * kMillisecond);
    }
    done = true;
  });
  w->kernel(2).Spawn("paused-reader", Priority::kUser, [this](Process* p) -> Task<> {
    auto& shm = w->shm(2);
    co_await w->kernel(2).SleepFor(p, 20 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    for (int i = 0; i < 20; ++i) {
      (void)co_await shm.ReadWord(p, base);
      co_await w->kernel(2).SleepFor(p, 40 * kMillisecond);
    }
  });
  ASSERT_TRUE(w->RunUntil([&] { return done; }, 120 * kSecond));
  w->RunFor(1 * kSecond);
  const mfault::FaultInjectorStats& fs = w->faults()->stats();
  EXPECT_EQ(fs.crashes, 1u);
  EXPECT_EQ(fs.recoveries, 1u);
  EXPECT_EQ(fs.pauses, 1u);
  EXPECT_EQ(fs.resumes, 1u);
  EXPECT_EQ(w->engine(1)->stats().rejoins, 1u);
  std::vector<mirage::Engine*> engines;
  for (int s = 0; s < 3; ++s) {
    engines.push_back(w->engine(s));
  }
  mirage::InvariantChecker checker(engines);
  mirage::InvariantReport report = checker.CheckFull(w->registry());
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations[0]);
}

// A crash → rejoin run is bit-deterministic, including every rejoin counter
// and the summed downtime.
TEST_F(FaultTest, DeterministicAcrossIdenticalRejoinRuns) {
  auto run = [](std::vector<std::uint64_t>& out) {
    WorldOptions opts;
    EnableRecovery(opts);
    opts.protocol.replicas = 2;
    opts.faults.CrashAt(60 * kMillisecond, 1).RecoverAt(250 * kMillisecond, 1);
    World lw(3, opts);
    int lshmid = lw.shm(0).Shmget(1, 2048, true).value();
    bool done = false;
    lw.kernel(0).Spawn("writer", Priority::kUser, [&lw, lshmid, &done](Process* p) -> Task<> {
      auto& shm = lw.shm(0);
      mmem::VAddr base = shm.Shmat(p, lshmid).value();
      for (std::uint32_t i = 1; i <= 25; ++i) {
        co_await shm.WriteWord(p, base, i);
        co_await lw.kernel(0).SleepFor(p, 20 * kMillisecond);
      }
      done = true;
    });
    ASSERT_TRUE(lw.RunUntil([&] { return done; }, 120 * kSecond));
    lw.RunFor(1 * kSecond);
    out.push_back(static_cast<std::uint64_t>(lw.sim().Now()));
    out.push_back(lw.faults()->stats().recoveries);
    out.push_back(static_cast<std::uint64_t>(lw.faults()->stats().downtime_us));
    out.push_back(lw.network().stats().packets);
    out.push_back(lw.network().stats().payload_bytes);
    for (int s = 0; s < 3; ++s) {
      const mirage::EngineStats& es = lw.engine(s)->stats();
      out.push_back(es.rejoins);
      out.push_back(es.rejoin_welcomes);
      out.push_back(es.replica_respreads);
      out.push_back(es.pages_resurrected);
      out.push_back(es.replica_writes);
    }
  };
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  run(a);
  run(b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// A crashed kernel stops executing: its processes freeze at their next
// suspension point and never run again.
TEST_F(FaultTest, CrashedSiteStopsExecuting) {
  WorldOptions opts;
  opts.faults.CrashAt(95 * kMillisecond, 1);
  Boot(2, opts);
  int ticks = 0;
  w->kernel(1).Spawn("ticker", Priority::kUser, [this, &ticks](Process* p) -> Task<> {
    for (;;) {
      ++ticks;
      co_await w->kernel(1).SleepFor(p, 10 * kMillisecond);
    }
  });
  w->RunFor(500 * kMillisecond);
  EXPECT_TRUE(w->kernel(1).halted());
  EXPECT_FALSE(w->kernel(0).halted());
  // ~10 ticks before the crash at 95 ms, none after.
  EXPECT_GE(ticks, 5);
  EXPECT_LE(ticks, 11);
  int ticks_at_end = ticks;
  w->RunFor(500 * kMillisecond);
  EXPECT_EQ(ticks, ticks_at_end);
}

}  // namespace
