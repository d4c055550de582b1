// Quorum-replicated pages (DESIGN.md "Failure model", replication
// extension): with ProtocolOptions::replicas = k >= 2 every committed page
// keeps k cold-standby copies of its last committed version, writes ack a
// write quorum ceil((k+1)/2) before the grant, and failover promotes the
// freshest surviving standby — a crash that kills fewer than a quorum of
// replica holders loses nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/mirage/invariants.h"
#include "src/sysv/world.h"

namespace {

using mos::Priority;
using mos::Process;
using msim::kMillisecond;
using msim::kSecond;
using msim::Task;
using msysv::World;
using msysv::WorldOptions;

void EnableRecovery(WorldOptions& opts) {
  opts.protocol.request_timeout_us = 100 * kMillisecond;
  opts.protocol.max_request_attempts = 3;
  opts.protocol.ack_timeout_us = 100 * kMillisecond;
  opts.protocol.op_timeout_us = 1 * kSecond;
}

struct ReplicationTest : public ::testing::Test {
  void Boot(int sites, WorldOptions opts) {
    w = std::make_unique<World>(sites, std::move(opts));
    shmid = w->shm(0).Shmget(1, 2048, true).value();
  }
  mirage::InvariantReport CheckInvariants() {
    std::vector<mirage::Engine*> engines;
    for (int s = 0; s < w->site_count(); ++s) {
      engines.push_back(w->engine(s));
    }
    return mirage::InvariantChecker(engines).CheckFull(w->registry());
  }
  std::unique_ptr<World> w;
  int shmid = -1;
};

// Every content-moving transition commits to the standbys before the grant:
// a simple writer/reader exchange produces replica writes and quorum waits,
// the directory version advances, and the replication invariants (standby
// set live and fresh, no future versions) hold at quiescence.
TEST_F(ReplicationTest, WritesCommitToStandbyQuorumBeforeGranting) {
  WorldOptions opts;
  opts.protocol.replicas = 2;
  Boot(2, opts);
  bool done = false;
  w->kernel(0).Spawn("writer", Priority::kUser, [this, &done](Process* p) -> Task<> {
    auto& shm = w->shm(0);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    co_await shm.WriteWord(p, base, 1);
    co_await w->kernel(0).SleepFor(p, 50 * kMillisecond);
    co_await shm.WriteWord(p, base, 2);  // invalidate-for-writer after the read below
    done = true;
  });
  w->kernel(1).Spawn("reader", Priority::kUser, [this](Process* p) -> Task<> {
    auto& shm = w->shm(1);
    co_await w->kernel(1).SleepFor(p, 20 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    EXPECT_EQ(co_await shm.ReadWord(p, base), 1u);
  });
  ASSERT_TRUE(w->RunUntil([&] { return done; }, 60 * kSecond));
  w->RunFor(1 * kSecond);  // quiesce
  std::uint64_t replica_writes = 0, quorum_waits = 0;
  for (int s = 0; s < 2; ++s) {
    replica_writes += w->engine(s)->stats().replica_writes;
    quorum_waits += w->engine(s)->stats().quorum_waits;
  }
  // At least: the grant-from-empty commit and the downgrade-for-readers
  // commit each waited on a quorum. (The second write is an upgrade — the
  // content did not move, so nothing new is committed until write mode ends.)
  EXPECT_GE(quorum_waits, 2u);
  EXPECT_GE(replica_writes, 1u);  // site 1 is a remote standby for site 0's library
  // The library's directory carries a version and a populated standby set.
  auto dv = w->engine(0)->Directory(shmid, 0);
  ASSERT_TRUE(dv.has_value());
  EXPECT_GE(dv->version, 2u);
  EXPECT_NE(dv->replica_set, 0u);
  mirage::InvariantReport report = CheckInvariants();
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_GT(report.pages_checked, 0);
}

// replicas = 1 keeps the replication machinery fully disabled: two identical
// runs — one with the option defaulted, one with it set explicitly — produce
// bit-identical counters and end times, and every replication counter is 0.
TEST_F(ReplicationTest, SingleCopyModeIsByteIdenticalAndCountersStayZero) {
  auto run = [](bool set_explicitly, std::vector<std::uint64_t>& out) {
    WorldOptions opts;
    EnableRecovery(opts);
    opts.faults.CrashAt(20 * kMillisecond, 2);
    if (set_explicitly) {
      opts.protocol.replicas = 1;
    }
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
    ASSERT_TRUE(lw.RunUntil([&] { return finished == 2; }, 120 * kSecond));
    out.push_back(static_cast<std::uint64_t>(lw.sim().Now()));
    out.push_back(lw.network().stats().packets);
    out.push_back(lw.network().stats().payload_bytes);
    for (int s = 0; s < 3; ++s) {
      const mirage::EngineStats& es = lw.engine(s)->stats();
      out.push_back(es.read_faults);
      out.push_back(es.write_faults);
      out.push_back(es.pages_installed);
      EXPECT_EQ(es.replica_writes, 0u);
      EXPECT_EQ(es.quorum_waits, 0u);
      EXPECT_EQ(es.degraded_reads, 0u);
      EXPECT_EQ(es.replica_respreads, 0u);
    }
  };
  std::vector<std::uint64_t> defaulted;
  std::vector<std::uint64_t> explicit_one;
  run(false, defaulted);
  run(true, explicit_one);
  ASSERT_FALSE(defaulted.empty());
  EXPECT_EQ(defaulted, explicit_one);
}

// Acceptance: the crash that condemns a page under the single-copy protocol
// (clock site holding the only copy dies) loses nothing with replicas = 2 —
// the library promotes its surviving standby and a later writer succeeds.
TEST_F(ReplicationTest, DataHolderCrashPromotesStandbyAndLosesNothing) {
  WorldOptions opts;
  EnableRecovery(opts);
  opts.protocol.replicas = 2;
  opts.faults.CrashAt(200 * kMillisecond, 1);
  Boot(3, opts);
  bool primed = false;
  bool wrote = false;
  // Site 1 faults first, so it becomes the page's clock site — then crashes.
  w->kernel(1).Spawn("clock-to-be", Priority::kUser, [this, &primed](Process* p) -> Task<> {
    auto& shm = w->shm(1);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    (void)co_await shm.ReadWord(p, base);
    primed = true;
    co_await w->kernel(1).SleepFor(p, 10 * kSecond);  // crashed at 200 ms
  });
  w->kernel(2).Spawn("writer", Priority::kUser, [this, &wrote](Process* p) -> Task<> {
    auto& shm = w->shm(2);
    co_await w->kernel(2).SleepFor(p, 400 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    // Under replicas=1 this write dies with EIDRM (the page's only copy
    // crashed); the standby promotion must make it succeed instead.
    co_await shm.WriteWord(p, base, 9);
    EXPECT_EQ(co_await shm.ReadWord(p, base), 9u);
    wrote = true;
  });
  ASSERT_TRUE(w->RunUntil([&] { return primed && wrote; }, 60 * kSecond));
  const mirage::EngineStats& lib = w->engine(0)->stats();
  EXPECT_EQ(lib.recoveries_completed, 1u);
  EXPECT_EQ(lib.pages_lost_in_recovery, 0u);
  EXPECT_GE(lib.pages_recovered, 1u);
  EXPECT_EQ(lib.faults_failed, 0u);
  // The page came back by promoting a standby, not from a surviving image.
  std::uint64_t promoted = 0;
  for (int s = 0; s < 3; ++s) {
    promoted += w->engine(s)->stats().degraded_reads;
  }
  EXPECT_GE(promoted, 1u);
  w->RunFor(1 * kSecond);  // quiesce (post-recovery re-spread completes)
  mirage::InvariantReport report = CheckInvariants();
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations[0]);
}

// Library crash before any grant, lone survivor: under replicas = 1 the
// never-granted page dies with the library's directory (EIDRM); under
// replication the elected successor infers it was never granted and serves
// it fresh — zero condemned pages.
TEST_F(ReplicationTest, LibraryCrashBeforeAnyGrantLeavesPageServable) {
  WorldOptions opts;
  EnableRecovery(opts);
  opts.protocol.replicas = 2;
  opts.faults.CrashAt(1 * kMillisecond, 0);
  Boot(2, opts);
  bool read_ok = false;
  w->kernel(1).Spawn("client", Priority::kUser, [this, &read_ok](Process* p) -> Task<> {
    auto& shm = w->shm(1);
    co_await w->kernel(1).SleepFor(p, 10 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    EXPECT_EQ(co_await shm.ReadWord(p, base), 0u);  // fresh zero page
    co_await shm.WriteWord(p, base, 3);
    EXPECT_EQ(co_await shm.ReadWord(p, base), 3u);
    read_ok = true;
  });
  ASSERT_TRUE(w->RunUntil([&] { return read_ok; }, 60 * kSecond));
  const mirage::EngineStats& es = w->engine(1)->stats();
  EXPECT_EQ(es.elections_won, 1u);
  EXPECT_EQ(es.recoveries_completed, 1u);
  EXPECT_EQ(es.pages_lost_in_recovery, 0u);
  EXPECT_EQ(es.faults_failed, 0u);
}

// Membership change under the standby sets: crashing a standby holder
// triggers a re-spread that rebuilds the replica population on the
// survivors, so the zero-loss invariant (a live standby at the committed
// version for every committed page) holds again at quiescence.
TEST_F(ReplicationTest, StandbyCrashRespreadsReplicasToSurvivors) {
  WorldOptions opts;
  EnableRecovery(opts);
  opts.protocol.replicas = 2;
  opts.faults.CrashAt(200 * kMillisecond, 1);
  Boot(3, opts);
  bool done = false;
  // Site 0 writes first (writer and clock site, library colocated); site 1
  // attaches and reads, becoming a standby holder; site 2 attaches so the
  // re-spread after site 1's crash has a surviving candidate.
  w->kernel(0).Spawn("writer", Priority::kUser, [this, &done](Process* p) -> Task<> {
    auto& shm = w->shm(0);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    co_await shm.WriteWord(p, base, 1);
    co_await w->kernel(0).SleepFor(p, 500 * kMillisecond);  // outlive the crash
    co_await shm.WriteWord(p, base, 2);  // a post-crash commit must still quorum
    done = true;
  });
  w->kernel(1).Spawn("doomed-reader", Priority::kUser, [this](Process* p) -> Task<> {
    auto& shm = w->shm(1);
    co_await w->kernel(1).SleepFor(p, 20 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    EXPECT_EQ(co_await shm.ReadWord(p, base), 1u);
    co_await w->kernel(1).SleepFor(p, 10 * kSecond);  // crashed at 200 ms
  });
  w->kernel(2).Spawn("bystander", Priority::kUser, [this](Process* p) -> Task<> {
    auto& shm = w->shm(2);
    co_await w->kernel(2).SleepFor(p, 30 * kMillisecond);
    (void)shm.Shmat(p, shmid).value();  // attached, so electable as a standby
    co_await w->kernel(2).SleepFor(p, 10 * kSecond);
  });
  ASSERT_TRUE(w->RunUntil([&] { return done; }, 60 * kSecond));
  w->RunFor(1 * kSecond);  // quiesce
  std::uint64_t respreads = 0;
  for (int s = 0; s < 3; ++s) {
    respreads += w->engine(s)->stats().replica_respreads;
  }
  EXPECT_GE(respreads, 1u);
  // The survivor inherited the standby: site 2 now holds a replica copy.
  auto rep = w->engine(2)->Replica(shmid, 0);
  ASSERT_TRUE(rep.has_value());
  auto dv = w->engine(0)->Directory(shmid, 0);
  ASSERT_TRUE(dv.has_value());
  EXPECT_EQ(rep->version, dv->version);
  mirage::InvariantReport report = CheckInvariants();
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations[0]);
}

// A reconstruction owes one install ack per promoted page, and promotions
// tie-break to the lowest site, so one standby holder often owes several.
// Here site 2 dies holding the only copies of pages 0 and 1; the in-place
// rebuild promotes both at site 0, which then dies just before its first
// kPromoteReplica arrives. Forgiving the dead site must forgive every ack it
// owes: forgiving one per site left the rebuild waiting out the whole 1 s op
// deadline (and with no deadline, forever).
TEST_F(ReplicationTest, PromotionTargetCrashForgivesEveryAckItOwes) {
  auto boot = [this](msim::Time crash_site0_at) {
    WorldOptions opts;
    EnableRecovery(opts);
    opts.protocol.replicas = 2;
    opts.faults.CrashAt(200 * kMillisecond, 2);
    if (crash_site0_at > 0) {
      opts.faults.CrashAt(crash_site0_at, 0);
    }
    w = std::make_unique<World>(4, std::move(opts));
    shmid = w->shm(3).Shmget(1, 4 * mmem::kPageSize, true).value();
    // Sites 0 and 1 attach first, so they hold the standbys of every page.
    for (int s = 0; s < 2; ++s) {
      w->kernel(s).Spawn("standby", Priority::kUser, [this, s](Process* p) -> Task<> {
        (void)w->shm(s).Shmat(p, shmid).value();
        co_await w->kernel(s).SleepFor(p, 10 * kSecond);
      });
    }
    w->kernel(2).Spawn("writer", Priority::kUser, [this](Process* p) -> Task<> {
      auto& shm = w->shm(2);
      co_await w->kernel(2).SleepFor(p, 20 * kMillisecond);
      mmem::VAddr base = shm.Shmat(p, shmid).value();
      co_await shm.WriteWord(p, base, 1);
      co_await shm.WriteWord(p, base + mmem::kPageSize, 2);
      co_await w->kernel(2).SleepFor(p, 10 * kSecond);  // crashed at 200 ms
    });
  };
  auto rebuilt = [this] { return w->engine(3)->stats().recoveries_completed >= 1; };

  // Pass 1, site 2's crash only: find when the first promotion reaches site 0.
  boot(0);
  msim::Time promote_at = -1;
  w->network().AddObserver([&promote_at](const mnet::Packet& pkt, msim::Time t) {
    if (promote_at < 0 && pkt.dst == 0 &&
        pkt.type == static_cast<std::uint32_t>(mirage::MsgKind::kPromoteReplica)) {
      promote_at = t;
    }
  });
  ASSERT_TRUE(w->RunUntil(rebuilt, 5 * kSecond));
  ASSERT_GT(promote_at, 200 * kMillisecond);
  w->RunFor(100 * kMillisecond);
  ASSERT_EQ(w->engine(0)->stats().degraded_reads, 2u) << "both pages promote at site 0";

  // Pass 2: site 0 crashes 1 us before that promotion arrives.
  boot(promote_at - 1);
  ASSERT_TRUE(w->RunUntil(rebuilt, 5 * kSecond));
  EXPECT_LT(w->sim().Now(), promote_at + 100 * kMillisecond)
      << "the rebuild waited for the op deadline instead of forgiving site 0";

  // Nothing is lost: the follow-up rebuild re-homes both pages on site 1's
  // standbys, which hold the last committed version (the zero page).
  w->RunFor(3 * kSecond);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(w->engine(s)->stats().pages_lost_in_recovery, 0u) << "site " << s;
  }
  bool read = false;
  w->kernel(1).Spawn("reader", Priority::kUser, [this, &read](Process* p) -> Task<> {
    auto& shm = w->shm(1);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    EXPECT_EQ(co_await shm.ReadWord(p, base), 0u);
    EXPECT_EQ(co_await shm.ReadWord(p, base + mmem::kPageSize), 0u);
    read = true;
  });
  ASSERT_TRUE(w->RunUntil([&] { return read; }, 5 * kSecond));
  mirage::InvariantReport report = CheckInvariants();
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations[0]);
}

// Replicated runs stay bit-deterministic: identical faulted runs with
// replicas = 2 agree on every counter and on the simulated end time.
TEST_F(ReplicationTest, ReplicatedFaultedRunsAreDeterministic) {
  auto run = [](std::vector<std::uint64_t>& out) {
    WorldOptions opts;
    EnableRecovery(opts);
    opts.protocol.replicas = 2;
    opts.faults.CrashAt(200 * kMillisecond, 1);
    World lw(3, opts);
    int lshmid = lw.shm(0).Shmget(1, 2048, true).value();
    bool done = false;
    lw.kernel(1).Spawn("doomed", Priority::kUser, [&lw, lshmid](Process* p) -> Task<> {
      auto& shm = lw.shm(1);
      mmem::VAddr base = shm.Shmat(p, lshmid).value();
      (void)co_await shm.ReadWord(p, base);
      co_await lw.kernel(1).SleepFor(p, 10 * kSecond);
    });
    lw.kernel(2).Spawn("writer", Priority::kUser, [&lw, lshmid, &done](Process* p) -> Task<> {
      auto& shm = lw.shm(2);
      co_await lw.kernel(2).SleepFor(p, 400 * kMillisecond);
      mmem::VAddr base = shm.Shmat(p, lshmid).value();
      co_await shm.WriteWord(p, base, 9);
      done = true;
    });
    ASSERT_TRUE(lw.RunUntil([&] { return done; }, 60 * kSecond));
    lw.RunFor(1 * kSecond);
    out.push_back(static_cast<std::uint64_t>(lw.sim().Now()));
    out.push_back(lw.network().stats().packets);
    out.push_back(lw.network().stats().payload_bytes);
    for (int s = 0; s < 3; ++s) {
      const mirage::EngineStats& es = lw.engine(s)->stats();
      out.push_back(es.replica_writes);
      out.push_back(es.quorum_waits);
      out.push_back(es.degraded_reads);
      out.push_back(es.replica_respreads);
      out.push_back(es.pages_recovered);
      out.push_back(es.pages_lost_in_recovery);
    }
  };
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  run(a);
  run(b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// Golden trace for the timeout + exponential-backoff path: the re-send
// schedule is a pure function of the fault plan, so both the event text and
// the event times must reproduce exactly, run after run.
TEST_F(ReplicationTest, TimeoutBackoffGoldenTrace) {
  auto run = [](std::vector<std::string>& out) {
    WorldOptions opts;
    opts.enable_trace = true;
    opts.protocol.request_timeout_us = 100 * kMillisecond;
    opts.protocol.max_request_attempts = 4;
    opts.protocol.ack_timeout_us = 100 * kMillisecond;
    opts.protocol.op_timeout_us = 2 * kSecond;
    // Pause the library across the first two timeouts (100 ms then 200 ms of
    // backoff); the third send lands after the resume and completes.
    opts.faults.PauseAt(1 * kMillisecond, 0).ResumeAt(450 * kMillisecond, 0);
    World lw(2, opts);
    int lshmid = lw.shm(0).Shmget(1, 2048, true).value();
    bool read = false;
    lw.kernel(1).Spawn("reader", Priority::kUser, [&lw, lshmid, &read](Process* p) -> Task<> {
      auto& shm = lw.shm(1);
      co_await lw.kernel(1).SleepFor(p, 10 * kMillisecond);
      mmem::VAddr base = shm.Shmat(p, lshmid).value();
      EXPECT_EQ(co_await shm.ReadWord(p, base), 0u);
      read = true;
    });
    ASSERT_TRUE(lw.RunUntil([&] { return read; }, 60 * kSecond));
    for (const mtrace::TraceEvent& e : lw.tracer().Filter("recovery")) {
      out.push_back(std::to_string(e.time) + "us site " + std::to_string(e.site) + ": " +
                    e.detail);
    }
  };
  std::vector<std::string> got;
  run(got);
  // Golden: first send at ~10 ms (attach + request cost), re-sends after
  // 100 ms and then 200 ms of backoff.
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "120525us site 1: request timeout, re-sending (attempt 2) page 0");
  EXPECT_EQ(got[1], "326250us site 1: request timeout, re-sending (attempt 3) page 0");
  std::vector<std::string> again;
  run(again);
  EXPECT_EQ(got, again);
}

}  // namespace
