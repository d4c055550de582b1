// Negative tests for src/mirage/invariants.cc: fabricate corrupted engine
// states through the test backdoors (Engine::TestOnlySetDirectory,
// Engine::TestOnlyInjectReplica, direct SegmentImage edits) and prove that
// each checker clause actually fires. The positive direction — a healthy
// protocol passes — is covered continuously by the stress and fault suites;
// what those can never show is that the oracle would notice a lie.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/mirage/invariants.h"
#include "src/sysv/world.h"

namespace {

using mirage::DirectoryView;
using mirage::InvariantReport;
using mirage::PageMode;
using mos::Priority;
using mos::Process;
using msim::kMillisecond;
using msim::kSecond;
using msim::Task;
using msysv::World;
using msysv::WorldOptions;

bool Mentions(const InvariantReport& report, const std::string& needle) {
  for (const std::string& v : report.violations) {
    if (v.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::string Joined(const InvariantReport& report) {
  std::string s;
  for (const std::string& v : report.violations) {
    s += v + "\n";
  }
  return s;
}

struct InvariantsTest : public ::testing::Test {
  // Boots `sites`, makes site 0 the library of one 2-page segment, attaches
  // every site, and has site 0 write P0 — a quiescent single-writer state
  // (mode kWriter, writer 0, clock site 0) that each test then corrupts.
  void BootWriterWorld(int sites, WorldOptions opts) {
    w = std::make_unique<World>(sites, std::move(opts));
    shmid = w->shm(0).Shmget(1, 1024, true).value();
    bool done = false;
    for (int s = 0; s < sites; ++s) {
      w->kernel(s).Spawn("site" + std::to_string(s), Priority::kUser,
                         [this, s, &done](Process* p) -> Task<> {
        auto& shm = w->shm(s);
        mmem::VAddr base = shm.Shmat(p, shmid).value();
        if (s == 0) {
          co_await shm.WriteWord(p, base, 42);
          done = true;
        }
      });
    }
    ASSERT_TRUE(w->RunUntil([&] { return done; }, 10 * kSecond));
    w->RunFor(500 * kMillisecond);  // quiesce (replica commits included)
  }

  // Converts the writer world into a two-reader state: site 1 reads P0, so
  // the write downgrades and the directory ends in mode kReaders {0, 1}.
  void AddReader() {
    bool done = false;
    w->kernel(1).Spawn("late-reader", Priority::kUser, [this, &done](Process* p) -> Task<> {
      auto& shm = w->shm(1);
      mmem::VAddr base = shm.Shmat(p, shmid).value();
      EXPECT_EQ(co_await shm.ReadWord(p, base), 42u);
      done = true;
    });
    ASSERT_TRUE(w->RunUntil([&] { return done; }, 10 * kSecond));
    w->RunFor(500 * kMillisecond);
  }

  InvariantReport CheckFull() {
    return Checker()->CheckFull(w->registry());
  }
  InvariantReport CheckPhysical() {
    return Checker()->CheckPhysical(w->registry());
  }

  mirage::InvariantChecker* Checker() {
    if (!checker) {
      std::vector<mirage::Engine*> engines;
      for (int s = 0; s < w->site_count(); ++s) {
        engines.push_back(w->engine(s));
      }
      checker = std::make_unique<mirage::InvariantChecker>(engines);
    }
    return checker.get();
  }

  DirectoryView Dir() {
    auto dv = w->engine(0)->Directory(shmid, 0);
    EXPECT_TRUE(dv.has_value());
    return *dv;
  }

  std::unique_ptr<World> w;
  std::unique_ptr<mirage::InvariantChecker> checker;
  int shmid = -1;
};

// ---- baseline -------------------------------------------------------------

TEST_F(InvariantsTest, HealthyWriterWorldPassesEveryCheck) {
  BootWriterWorld(2, WorldOptions{});
  EXPECT_TRUE(CheckFull().ok()) << Joined(CheckFull());
  EXPECT_GT(CheckFull().pages_checked, 0);
}

// ---- physical clauses -----------------------------------------------------

TEST_F(InvariantsTest, TwoWritableCopiesAreFlagged) {
  BootWriterWorld(2, WorldOptions{});
  // Site 1 attached (image exists) but holds no copy; forge a second
  // writable P0 behind the protocol's back.
  w->engine(1)->ImageOrNull(shmid)->InstallPage(0, {}, /*writable=*/true, 0, 0);
  InvariantReport r = CheckPhysical();
  EXPECT_TRUE(Mentions(r, "2 writable copies")) << Joined(r);
}

TEST_F(InvariantsTest, WritableCopyCoexistingWithReaderIsFlagged) {
  BootWriterWorld(2, WorldOptions{});
  w->engine(1)->ImageOrNull(shmid)->InstallPage(0, {}, /*writable=*/false, 0, 0);
  InvariantReport r = CheckPhysical();
  EXPECT_TRUE(Mentions(r, "writable copy coexists with 1 other copies")) << Joined(r);
}

// ---- directory clauses ----------------------------------------------------

TEST_F(InvariantsTest, EmptyDirectoryWithLiveCopiesIsFlagged) {
  BootWriterWorld(2, WorldOptions{});
  ASSERT_TRUE(w->engine(0)->TestOnlySetDirectory(shmid, 0, DirectoryView{}));
  InvariantReport r = CheckFull();
  EXPECT_TRUE(Mentions(r, "directory empty but copies exist")) << Joined(r);
}

TEST_F(InvariantsTest, WriterModeImageMismatchIsFlagged) {
  BootWriterWorld(2, WorldOptions{});
  DirectoryView v = Dir();
  v.writer = 1;  // the actual writable copy lives at site 0
  v.clock_site = 1;
  ASSERT_TRUE(w->engine(0)->TestOnlySetDirectory(shmid, 0, v));
  InvariantReport r = CheckFull();
  EXPECT_TRUE(Mentions(r, "writer-mode directory/image mismatch")) << Joined(r);
}

TEST_F(InvariantsTest, WriterWhoIsNotClockSiteIsFlagged) {
  BootWriterWorld(2, WorldOptions{});
  DirectoryView v = Dir();
  v.clock_site = 1;  // writer stays site 0, so only the clock clause trips
  ASSERT_TRUE(w->engine(0)->TestOnlySetDirectory(shmid, 0, v));
  InvariantReport r = CheckFull();
  EXPECT_TRUE(Mentions(r, "writer is not clock site")) << Joined(r);
  EXPECT_FALSE(Mentions(r, "writer-mode directory/image mismatch")) << Joined(r);
}

TEST_F(InvariantsTest, ReadersModeHidingAWritableCopyIsFlagged) {
  BootWriterWorld(2, WorldOptions{});
  DirectoryView v = Dir();
  v.mode = PageMode::kReaders;  // image at site 0 is still writable
  v.readers = mmem::MaskOf(0);
  v.writer = mnet::kNoSite;
  v.clock_site = 0;
  ASSERT_TRUE(w->engine(0)->TestOnlySetDirectory(shmid, 0, v));
  InvariantReport r = CheckFull();
  EXPECT_TRUE(Mentions(r, "readers mode but a writable copy exists")) << Joined(r);
}

TEST_F(InvariantsTest, ReaderSetDisagreeingWithCopiesIsFlagged) {
  BootWriterWorld(2, WorldOptions{});
  AddReader();  // downgrades to mode kReaders {0, 1}
  DirectoryView v = Dir();
  ASSERT_EQ(v.mode, PageMode::kReaders);
  v.readers = mmem::MaskOf(0);  // deny site 1's copy
  v.clock_site = 0;
  ASSERT_TRUE(w->engine(0)->TestOnlySetDirectory(shmid, 0, v));
  InvariantReport r = CheckFull();
  EXPECT_TRUE(Mentions(r, "reader set does not match present copies")) << Joined(r);
}

TEST_F(InvariantsTest, ClockSiteOutsideReaderSetIsFlagged) {
  BootWriterWorld(2, WorldOptions{});
  AddReader();
  DirectoryView v = Dir();
  ASSERT_EQ(v.mode, PageMode::kReaders);
  v.readers = mmem::MaskOf(1);  // clock site 0 no longer a member
  ASSERT_TRUE(w->engine(0)->TestOnlySetDirectory(shmid, 0, v));
  InvariantReport r = CheckFull();
  EXPECT_TRUE(Mentions(r, "clock site is not in the reader set")) << Joined(r);
}

// ---- replication clauses (replicas = 2) -----------------------------------

WorldOptions Replicated() {
  WorldOptions opts;
  opts.protocol.replicas = 2;
  return opts;
}

TEST_F(InvariantsTest, HealthyReplicatedWorldPassesEveryCheck) {
  BootWriterWorld(3, Replicated());
  InvariantReport r = CheckFull();
  EXPECT_TRUE(r.ok()) << Joined(r);
  ASSERT_GE(Dir().version, 1u);  // the write actually committed
}

TEST_F(InvariantsTest, StandbyFromTheFutureIsFlagged) {
  BootWriterWorld(3, Replicated());
  w->engine(2)->TestOnlyInjectReplica(shmid, 0, Dir().version + 5, 0);
  InvariantReport r = CheckFull();
  EXPECT_TRUE(Mentions(r, "standby from the future")) << Joined(r);
}

TEST_F(InvariantsTest, StandbyFromANewerEpochIsFlagged) {
  BootWriterWorld(3, Replicated());
  w->engine(2)->TestOnlyInjectReplica(shmid, 0, Dir().version, /*epoch=*/3);
  InvariantReport r = CheckFull();
  EXPECT_TRUE(Mentions(r, "newer epoch than the library")) << Joined(r);
}

TEST_F(InvariantsTest, StaleStandbysBreakQuorumAndZeroLoss) {
  BootWriterWorld(3, Replicated());
  // Pretend a newer version committed that no standby ever received: every
  // declared standby is now stale, so the zero-loss witness and the quorum
  // intersection clause must both fire.
  DirectoryView v = Dir();
  v.version += 1;
  ASSERT_TRUE(w->engine(0)->TestOnlySetDirectory(shmid, 0, v));
  InvariantReport r = CheckFull();
  EXPECT_TRUE(Mentions(r, "is stale")) << Joined(r);
  EXPECT_TRUE(Mentions(r, "no live standby holds committed version")) << Joined(r);
  EXPECT_TRUE(Mentions(r, "quorum intersection")) << Joined(r);
}

TEST_F(InvariantsTest, ReplicaSetNamingUnknownSiteIsFlagged) {
  BootWriterWorld(3, Replicated());
  DirectoryView v = Dir();
  v.replica_set |= mmem::MaskOf(6);  // site 6 does not exist
  ASSERT_TRUE(w->engine(0)->TestOnlySetDirectory(shmid, 0, v));
  InvariantReport r = CheckFull();
  EXPECT_TRUE(Mentions(r, "replica set names unknown site 6")) << Joined(r);
}

TEST_F(InvariantsTest, ReplicaSetNamingDeadSiteIsFlagged) {
  BootWriterWorld(3, Replicated());
  DirectoryView v = Dir();
  ASSERT_NE(v.replica_set, 0u);
  // Find a standby member other than the library and declare it dead
  // without letting the protocol scrub it.
  mnet::SiteId victim = mnet::kNoSite;
  for (mnet::SiteId s = 1; s < 3; ++s) {
    if (mmem::MaskHas(v.replica_set, s)) {
      victim = s;
      break;
    }
  }
  ASSERT_NE(victim, mnet::kNoSite);
  w->network().liveness().Crash(victim, w->sim().Now());
  InvariantReport r = CheckFull();
  EXPECT_TRUE(Mentions(r, "replica set names dead site")) << Joined(r);
}

// ---- epoch bookkeeping ----------------------------------------------------

TEST_F(InvariantsTest, RegistryEpochAdvanceIsAcceptedByTheBaseline) {
  BootWriterWorld(2, WorldOptions{});
  EXPECT_TRUE(CheckFull().ok());
  // A legitimate failover-style epoch bump must not be misread as a
  // violation by the stateful monotonicity baseline.
  ASSERT_TRUE(w->registry().UpdateLibrary(shmid, 0, 2));
  InvariantReport r = CheckFull();
  EXPECT_FALSE(Mentions(r, "went backwards")) << Joined(r);
}

}  // namespace
