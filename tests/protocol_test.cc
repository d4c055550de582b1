// Protocol-level tests for the Mirage engine: the Table 1 state machine,
// read batching, window (Delta) enforcement and retry, the two protocol
// optimizations, the optional mechanisms, and the request log.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "src/sysv/world.h"

namespace {

using mirage::PageMode;
using mos::Priority;
using mos::Process;
using msim::kMillisecond;
using msim::kSecond;
using msim::Task;
using msysv::ShmSystem;
using msysv::World;
using msysv::WorldOptions;

// Runs `fn` as a user process at `site` with the segment attached; returns
// after it completes. Segments stay attached (scripted scenarios manage
// lifetime themselves).
void Step(World& w, int site, int shmid,
          const std::function<Task<>(ShmSystem&, Process*, mmem::VAddr)>& fn,
          msim::Duration timeout = 30 * kSecond) {
  bool done = false;
  w.kernel(site).Spawn("step", Priority::kUser, [&w, site, shmid, &fn, &done](
                                                    Process* p) -> Task<> {
    auto& shm = w.shm(site);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    co_await fn(shm, p, base);
    done = true;
  });
  ASSERT_TRUE(w.RunUntil([&] { return done; }, timeout)) << "step timed out at site " << site;
}

Task<> Read(ShmSystem& shm, Process* p, mmem::VAddr a) { (void)co_await shm.ReadWord(p, a); }
Task<> Write(ShmSystem& shm, Process* p, mmem::VAddr a) { co_await shm.WriteWord(p, a, 9); }

struct ProtoTest : public ::testing::Test {
  std::unique_ptr<World> w;
  int shmid = -1;

  void Boot(int sites, mirage::ProtocolOptions proto = {}) {
    WorldOptions opts;
    opts.protocol = proto;
    w = std::make_unique<World>(sites, opts);
    shmid = w->shm(0).Shmget(1, 1024, true).value();
  }
  // The library's directory update trails the requester-visible completion
  // by the install acknowledgement; settle before inspecting it.
  mirage::DirectoryView Dir(int page = 0) {
    w->RunFor(100 * kMillisecond);
    auto v = w->engine(0)->Directory(shmid, page);
    EXPECT_TRUE(v.has_value());
    return *v;
  }
};

template <typename Body>
void ExpectMessage(mirage::MsgKind kind, std::uint32_t wire_bytes) {
  EXPECT_EQ(Body::kKind, kind) << mirage::MsgKindName(kind);
  EXPECT_EQ(mirage::kWireBytes<Body>, wire_bytes) << mirage::MsgKindName(kind);
}

// Each body names its kind, and only the bodies that carry a page cost one
// on the wire.
TEST(ProtocolMessages, KindAndWireSizeFollowFromTheBody) {
  using mirage::MsgKind;
  const std::uint32_t kShort = mirage::kShortMsgBytes;
  const std::uint32_t kPage = mirage::kPageMsgBytes;
  ExpectMessage<mirage::PageRequestBody>(MsgKind::kPageRequest, kShort);
  ExpectMessage<mirage::ClockOpBody>(MsgKind::kClockOp, kShort);
  ExpectMessage<mirage::WaitReplyBody>(MsgKind::kWaitReply, kShort);
  ExpectMessage<mirage::InvalidatePageBody>(MsgKind::kInvalidatePage, kShort);
  ExpectMessage<mirage::InvalidateAckBody>(MsgKind::kInvalidateAck, kShort);
  ExpectMessage<mirage::PageInstallBody>(MsgKind::kPageInstall, kPage);
  ExpectMessage<mirage::UpgradeGrantBody>(MsgKind::kUpgradeGrant, kShort);
  ExpectMessage<mirage::InstallAckBody>(MsgKind::kInstallAck, kShort);
  ExpectMessage<mirage::RequestFailedBody>(MsgKind::kRequestFailed, kShort);
  ExpectMessage<mirage::RecoveryQueryBody>(MsgKind::kRecoveryQuery, kShort);
  ExpectMessage<mirage::RecoveryReplyBody>(MsgKind::kRecoveryReply, kShort);
  ExpectMessage<mirage::ReplicateBody>(MsgKind::kReplicate, kPage);
  ExpectMessage<mirage::ReplicateAckBody>(MsgKind::kReplicateAck, kShort);
  ExpectMessage<mirage::PromoteReplicaBody>(MsgKind::kPromoteReplica, kShort);
  ExpectMessage<mirage::RejoinAnnounceBody>(MsgKind::kRejoinAnnounce, kShort);
  ExpectMessage<mirage::RejoinWelcomeBody>(MsgKind::kRejoinWelcome, kShort);
}

TEST_F(ProtoTest, FirstReadChecksOutZeroPage) {
  Boot(2);
  Step(*w, 1, shmid, [](ShmSystem& shm, Process* p, mmem::VAddr a) -> Task<> {
    EXPECT_EQ(co_await shm.ReadWord(p, a), 0u);
  });
  mirage::DirectoryView d = Dir();
  EXPECT_EQ(d.mode, PageMode::kReaders);
  EXPECT_EQ(d.readers, mmem::MaskOf(1));
  EXPECT_EQ(d.clock_site, 1);
}

TEST_F(ProtoTest, FirstWriteMakesWriterAndClockSite) {
  Boot(2);
  Step(*w, 1, shmid, Write);
  mirage::DirectoryView d = Dir();
  EXPECT_EQ(d.mode, PageMode::kWriter);
  EXPECT_EQ(d.writer, 1);
  EXPECT_EQ(d.clock_site, 1);
  EXPECT_EQ(d.readers, 0u);
}

TEST_F(ProtoTest, Table1Row1_ReadersReaders_NoClockCheckNoInvalidation) {
  mirage::ProtocolOptions proto;
  proto.default_window_us = 10 * kSecond;  // any clock check would stall 10 s
  Boot(3, proto);
  Step(*w, 1, shmid, Read);
  Step(*w, 2, shmid, Read, 5 * kSecond);  // must complete without waiting out the window
  mirage::DirectoryView d = Dir();
  EXPECT_EQ(d.mode, PageMode::kReaders);
  EXPECT_EQ(d.readers, mmem::MaskOf(1) | mmem::MaskOf(2));
  EXPECT_EQ(d.clock_site, 1);  // unchanged
  // No invalidations or refusals anywhere.
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(w->engine(s)->stats().local_invalidations, 0u);
    EXPECT_EQ(w->engine(s)->stats().wait_replies_sent, 0u);
  }
  // The clock site's auxpte reader mask was kept current (Table 2).
  auto* img1 = w->engine(1)->ImageOrNull(shmid);
  ASSERT_NE(img1, nullptr);
  EXPECT_EQ(img1->aux(0).reader_mask, mmem::MaskOf(1) | mmem::MaskOf(2));
}

// Second input: with optimization 1 off, the same request moves the page.
TEST_F(ProtoTest, Table1Row2_UpgradeWhenWriterInReadSet) {
  for (bool optimization : {true, false}) {
    SCOPED_TRACE(optimization ? "upgrade optimization on" : "upgrade optimization off");
    mirage::ProtocolOptions proto;
    proto.upgrade_optimization = optimization;
    Boot(3, proto);
    Step(*w, 1, shmid, Read);
    Step(*w, 2, shmid, Read);
    std::uint64_t large_before = w->network().stats().large_packets;
    Step(*w, 2, shmid, Write);
    if (optimization) {
      // Optimization 1: no page moved; a notification upgraded site 2.
      EXPECT_EQ(w->network().stats().large_packets, large_before);
      EXPECT_EQ(w->engine(2)->stats().upgrades_received, 1u);
    } else {
      // Off: the page is transferred in full, as to a writer outside the
      // read set.
      EXPECT_EQ(w->network().stats().large_packets, large_before + 1);
      EXPECT_EQ(w->engine(2)->stats().upgrades_received, 0u);
    }
    EXPECT_TRUE(w->engine(2)->ImageOrNull(shmid)->Writable(0));
    // The other reader's copy is gone.
    EXPECT_FALSE(w->engine(1)->ImageOrNull(shmid)->Present(0));
    mirage::DirectoryView d = Dir();
    EXPECT_EQ(d.mode, PageMode::kWriter);
    EXPECT_EQ(d.writer, 2);
    EXPECT_EQ(d.clock_site, 2);
  }
}

TEST_F(ProtoTest, Table1Row2_FullTransferWhenWriterOutsideReadSet) {
  Boot(3);
  Step(*w, 1, shmid, Read);
  std::uint64_t large_before = w->network().stats().large_packets;
  Step(*w, 2, shmid, Write);
  // Site 2 had no copy: the page itself had to move.
  EXPECT_EQ(w->network().stats().large_packets, large_before + 1);
  EXPECT_FALSE(w->engine(1)->ImageOrNull(shmid)->Present(0));
  EXPECT_TRUE(w->engine(2)->ImageOrNull(shmid)->Writable(0));
}

// Second input: with optimization 2 off, the writer's copy is invalidated.
TEST_F(ProtoTest, Table1Row3_DowngradeRetainsWriterCopy) {
  for (bool optimization : {true, false}) {
    SCOPED_TRACE(optimization ? "downgrade optimization on" : "downgrade optimization off");
    mirage::ProtocolOptions proto;
    proto.downgrade_optimization = optimization;
    Boot(3, proto);
    Step(*w, 1, shmid, [](ShmSystem& shm, Process* p, mmem::VAddr a) -> Task<> {
      co_await shm.WriteWord(p, a, 1234);
    });
    Step(*w, 2, shmid, [](ShmSystem& shm, Process* p, mmem::VAddr a) -> Task<> {
      EXPECT_EQ(co_await shm.ReadWord(p, a), 1234u);
    });
    auto* img1 = w->engine(1)->ImageOrNull(shmid);
    mirage::DirectoryView d = Dir();
    EXPECT_EQ(d.mode, PageMode::kReaders);
    EXPECT_EQ(d.writer, mnet::kNoSite);
    if (optimization) {
      // Optimization 2: the old writer keeps a read-only copy and stays
      // clock site for the read set.
      EXPECT_TRUE(img1->Present(0));
      EXPECT_FALSE(img1->Writable(0));
      EXPECT_EQ(w->engine(1)->stats().downgrades_performed, 1u);
      EXPECT_EQ(d.readers, mmem::MaskOf(1) | mmem::MaskOf(2));
      EXPECT_EQ(d.clock_site, 1);
    } else {
      // Off: the old writer's copy is invalidated, and the clock moves to
      // the lowest site of the read batch.
      EXPECT_FALSE(img1->Present(0));
      EXPECT_EQ(w->engine(1)->stats().downgrades_performed, 0u);
      EXPECT_EQ(d.readers, mmem::MaskOf(2));
      EXPECT_EQ(d.clock_site, 2);
    }
  }
}

// Writer -> Readers with optimization 2 off and a batch of two readers: the
// clock moves to the batch's lowest site, not to the site whose request the
// library took first.
TEST_F(ProtoTest, Table1Row3_DowngradeOffMovesClockToLowestBatchedReader) {
  mirage::ProtocolOptions proto;
  proto.downgrade_optimization = false;
  Boot(4, proto);
  Step(*w, 1, shmid, Write);
  int done = 0;
  for (int site : {3, 2}) {
    w->kernel(site).Spawn("reader", Priority::kUser, [this, site, &done](Process* p) -> Task<> {
      auto& shm = w->shm(site);
      mmem::VAddr base = shm.Shmat(p, shmid).value();
      // Site 3 faults first; site 2's request reaches the library while the
      // library is still working on site 3's, so the two are batched.
      co_await w->kernel(site).SleepFor(p, site == 3 ? 0 : 1 * kMillisecond);
      (void)co_await shm.ReadWord(p, base);
      ++done;
    });
  }
  ASSERT_TRUE(w->RunUntil([&] { return done == 2; }, 30 * kSecond));
  EXPECT_EQ(w->engine(0)->stats().read_batches, 1u);
  EXPECT_FALSE(w->engine(1)->ImageOrNull(shmid)->Present(0));
  mirage::DirectoryView d = Dir();
  EXPECT_EQ(d.mode, PageMode::kReaders);
  EXPECT_EQ(d.readers, mmem::MaskOf(2) | mmem::MaskOf(3));
  EXPECT_EQ(d.clock_site, 2);
}

TEST_F(ProtoTest, Table1Row4_WriterWriterTransfersAndInvalidates) {
  Boot(3);
  Step(*w, 1, shmid, [](ShmSystem& shm, Process* p, mmem::VAddr a) -> Task<> {
    co_await shm.WriteWord(p, a, 55);
  });
  Step(*w, 2, shmid, [](ShmSystem& shm, Process* p, mmem::VAddr a) -> Task<> {
    co_await shm.WriteWord(p, a + 4, 66);
    // The new writer must see the old writer's data on the same page.
    EXPECT_EQ(co_await shm.ReadWord(p, a), 55u);
  });
  EXPECT_FALSE(w->engine(1)->ImageOrNull(shmid)->Present(0));
  EXPECT_TRUE(w->engine(2)->ImageOrNull(shmid)->Writable(0));
  mirage::DirectoryView d = Dir();
  EXPECT_EQ(d.writer, 2);
  EXPECT_EQ(d.clock_site, 2);
}

TEST_F(ProtoTest, WindowRefusalDelaysInvalidation) {
  mirage::ProtocolOptions proto;
  proto.default_window_us = 300 * kMillisecond;
  Boot(2, proto);
  Step(*w, 1, shmid, Write);  // window opens at install
  msim::Time t0 = w->sim().Now();
  Step(*w, 0, shmid, Read, 5 * kSecond);  // must wait out the window
  msim::Duration waited = w->sim().Now() - t0;
  EXPECT_GT(waited, 250 * kMillisecond);
  // The clock exchange went over the network: a refusal was sent.
  EXPECT_GE(w->engine(1)->stats().wait_replies_sent, 1u);
  EXPECT_GE(w->engine(0)->stats().invalidation_retries, 1u);
}

TEST_F(ProtoTest, ExpiredWindowInvalidatesWithoutRetry) {
  mirage::ProtocolOptions proto;
  proto.default_window_us = 50 * kMillisecond;
  Boot(2, proto);
  Step(*w, 1, shmid, Write);
  // Let the window lapse before the competing request arrives.
  w->RunFor(200 * kMillisecond);
  Step(*w, 0, shmid, Read, 5 * kSecond);
  EXPECT_EQ(w->engine(1)->stats().wait_replies_sent, 0u);
}

TEST_F(ProtoTest, ReadBatchingGrantsAllQueuedReaders) {
  Boot(4);
  // A writer holds the page under a window long enough for multiple read
  // requests to pile up at the library.
  w->engine(0)->options();  // (engine exists)
  w->engine(0)->SetSegmentWindow(shmid, 400 * kMillisecond);
  Step(*w, 1, shmid, Write);
  bool d2 = false;
  bool d3 = false;
  for (int site : {2, 3}) {
    bool* flag = site == 2 ? &d2 : &d3;
    w->kernel(site).Spawn("reader", Priority::kUser,
                          [this, site, flag](Process* p) -> Task<> {
                            auto& shm = w->shm(site);
                            mmem::VAddr base = shm.Shmat(p, shmid).value();
                            (void)co_await shm.ReadWord(p, base);
                            *flag = true;
                          });
  }
  ASSERT_TRUE(w->RunUntil([&] { return d2 && d3; }, 10 * kSecond));
  // Both read requests were granted as one batch by the library.
  EXPECT_GE(w->engine(0)->stats().read_batches, 1u);
  EXPECT_GE(w->engine(0)->stats().batched_extra_reads, 1u);
  mirage::DirectoryView d = Dir();
  EXPECT_EQ(d.readers, mmem::MaskOf(1) | mmem::MaskOf(2) | mmem::MaskOf(3));
}

TEST_F(ProtoTest, PerPageWindowsAreIndependent) {
  Boot(2);
  w->engine(0)->SetPageWindow(shmid, 0, 500 * kMillisecond);
  w->engine(0)->SetPageWindow(shmid, 1, 0);
  EXPECT_EQ(w->engine(0)->PageWindow(shmid, 0), 500 * kMillisecond);
  EXPECT_EQ(w->engine(0)->PageWindow(shmid, 1), 0);
  Step(*w, 1, shmid, [](ShmSystem& shm, Process* p, mmem::VAddr a) -> Task<> {
    co_await shm.WriteWord(p, a, 1);                 // page 0: long window
    co_await shm.WriteWord(p, a + mmem::kPageSize, 2);  // page 1: no window
  });
  // Page 1 moves immediately; page 0 must wait out its window.
  msim::Time t0 = w->sim().Now();
  Step(*w, 0, shmid, [](ShmSystem& shm, Process* p, mmem::VAddr a) -> Task<> {
    (void)co_await shm.ReadWord(p, a + mmem::kPageSize);
  });
  msim::Duration page1_time = w->sim().Now() - t0;
  EXPECT_LT(page1_time, 200 * kMillisecond);
  t0 = w->sim().Now();
  Step(*w, 0, shmid, Read, 5 * kSecond);
  EXPECT_GT(w->sim().Now() - t0, 150 * kMillisecond);
}

TEST_F(ProtoTest, DynamicWindowHookAdjustsInstalledWindow) {
  mirage::ProtocolOptions proto;
  proto.default_window_us = 100 * kMillisecond;
  int calls = 0;
  proto.dynamic_window = [&calls](mmem::SegmentId, mmem::PageNum,
                                  msim::Duration current) -> msim::Duration {
    ++calls;
    return current / 2;
  };
  Boot(2, proto);
  Step(*w, 1, shmid, Write);
  EXPECT_GT(calls, 0);
  EXPECT_EQ(w->engine(1)->ImageOrNull(shmid)->aux(0).window_us, 50 * kMillisecond);
}

TEST_F(ProtoTest, QueuedInvalidationAvoidsRetryMessages) {
  mirage::ProtocolOptions proto;
  proto.default_window_us = 200 * kMillisecond;
  proto.queued_invalidation = true;
  Boot(2, proto);
  Step(*w, 1, shmid, Write);
  msim::Time t0 = w->sim().Now();
  Step(*w, 0, shmid, Read, 5 * kSecond);
  // The wait still happens (coherence guarded by the window)...
  EXPECT_GT(w->sim().Now() - t0, 120 * kMillisecond);
  // ...but no refusal/retry messages were exchanged.
  EXPECT_EQ(w->engine(1)->stats().wait_replies_sent, 0u);
  EXPECT_GE(w->engine(1)->stats().queued_invalidations, 1u);
}

TEST_F(ProtoTest, HonorSmallRemainingSkipsRetry) {
  mirage::ProtocolOptions proto;
  // Window shorter than the 12.9 ms retry threshold: with the §7.1
  // optimization on, the clock site honors the invalidation immediately.
  proto.default_window_us = 10 * kMillisecond;
  proto.honor_small_remaining = true;
  Boot(2, proto);
  Step(*w, 1, shmid, Write);
  Step(*w, 0, shmid, Read, 5 * kSecond);
  EXPECT_EQ(w->engine(1)->stats().wait_replies_sent, 0u);
}

TEST_F(ProtoTest, RequestLogRecordsRemoteRequestsOnly) {
  mirage::ProtocolOptions proto;
  proto.enable_request_log = true;
  Boot(2, proto);
  Step(*w, 1, shmid, Write);
  Step(*w, 1, shmid, Read);  // satisfied locally: no request, no log entry
  const auto& log = w->engine(0)->request_log();
  ASSERT_EQ(log.entries().size(), 1u);
  EXPECT_EQ(log.entries()[0].site, 1);
  EXPECT_TRUE(log.entries()[0].write);
  EXPECT_EQ(log.entries()[0].seg, shmid);
  auto hist = log.PageHistogram(shmid);
  EXPECT_EQ(hist[0], 1);
}

TEST_F(ProtoTest, ColocatedLibraryFaultsSendNoMessages) {
  Boot(2);
  std::uint64_t before = w->network().stats().packets;
  Step(*w, 0, shmid, Write);  // requester == library site; everything local
  EXPECT_EQ(w->network().stats().packets, before);
  EXPECT_EQ(w->engine(0)->stats().local_requests, 1u);
}

TEST_F(ProtoTest, ParallelPageOpsPreservePerPageOrderAndCoherence) {
  mirage::ProtocolOptions proto;
  proto.parallel_page_ops = true;
  Boot(3, proto);
  // Hammer two pages from two remote sites concurrently; all values must
  // stay coherent and the directory must end in a consistent state.
  int finished = 0;
  for (int s : {1, 2}) {
    w->kernel(s).Spawn("par", Priority::kUser, [this, s, &finished](Process* p) -> Task<> {
      auto& shm = w->shm(s);
      mmem::VAddr base = shm.Shmat(p, shmid).value();
      mmem::VAddr mine = base + static_cast<mmem::VAddr>(s - 1) * mmem::kPageSize;
      for (std::uint32_t i = 1; i <= 15; ++i) {
        co_await shm.WriteWord(p, mine, i);
        EXPECT_EQ(co_await shm.ReadWord(p, mine), i);
      }
      ++finished;
    });
  }
  ASSERT_TRUE(w->RunUntil([&] { return finished == 2; }, 60 * kSecond));
  w->RunFor(200 * kMillisecond);
  EXPECT_EQ(Dir(0).writer, 1);
  EXPECT_EQ(Dir(1).writer, 2);
}

TEST_F(ProtoTest, ParallelPageOpsOverlapIndependentPages) {
  // Two remote sites each fetch a different never-checked-out page at the
  // same moment. A serial library services them back to back; the parallel
  // library overlaps them, so the second requester finishes sooner.
  auto elapsed_for_second = [](bool parallel) {
    mirage::ProtocolOptions proto;
    proto.parallel_page_ops = parallel;
    WorldOptions opts;
    opts.protocol = proto;
    World lw(3, opts);
    int id = lw.shm(0).Shmget(1, 1024, true).value();
    // Pin both pages at site 0 so each remote fetch needs a full clock
    // exchange, making serialization visible.
    bool pinned = false;
    lw.kernel(0).Spawn("pin", Priority::kUser, [&](Process* p) -> Task<> {
      auto& shm = lw.shm(0);
      mmem::VAddr base = shm.Shmat(p, id).value();
      co_await shm.WriteWord(p, base, 1);
      co_await shm.WriteWord(p, base + mmem::kPageSize, 1);
      pinned = true;
    });
    EXPECT_TRUE(lw.RunUntil([&] { return pinned; }, 10 * kSecond));
    int done = 0;
    msim::Time finish = 0;
    for (int s : {1, 2}) {
      lw.kernel(s).Spawn("get", Priority::kUser, [&lw, &done, &finish, s, id](
                                                     Process* p) -> Task<> {
        auto& shm = lw.shm(s);
        mmem::VAddr base = shm.Shmat(p, id).value();
        (void)co_await shm.ReadWord(p, base + static_cast<mmem::VAddr>(s - 1) *
                                           mmem::kPageSize);
        ++done;
        finish = lw.sim().Now();
      });
    }
    EXPECT_TRUE(lw.RunUntil([&] { return done == 2; }, 30 * kSecond));
    return finish;
  };
  EXPECT_LT(elapsed_for_second(true), elapsed_for_second(false));
}

TEST_F(ProtoTest, WindowEnforcedForReadSetToo) {
  mirage::ProtocolOptions proto;
  proto.default_window_us = 300 * kMillisecond;
  Boot(3, proto);
  Step(*w, 1, shmid, Read);
  // A writer outside the read set must wait out the readers' window.
  msim::Time t0 = w->sim().Now();
  Step(*w, 2, shmid, Write, 5 * kSecond);
  EXPECT_GT(w->sim().Now() - t0, 200 * kMillisecond);
}

}  // namespace
