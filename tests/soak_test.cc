// Chaos soak for quorum-replicated pages (ctest label "soak").
//
// Property: with replicas = k >= 2, any crash plan that kills fewer sites
// than a write quorum loses nothing — no fault ever returns kPageLost, no
// page is condemned in recovery, and the full invariant suite (coherence,
// directory agreement, replication freshness) holds at quiescence.
//
// Each case derives a random single-crash FaultPlan and a random traffic
// pattern from its seed via SplitMix64, so the 32 seeds cover library
// crashes, clock-site crashes, standby crashes, and bystander crashes at
// varying points of the run — every case is reproducible from its index.
// Odd-numbered cases extend the crash into a full crash → rejoin cycle:
// the site revives with amnesia at a random later time, re-admits itself
// through the epoch-fenced handshake, and the re-spread must restore full
// k-replica coverage (checked by CheckReplicaCoverage) on top of the
// no-loss property.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/mirage/invariants.h"
#include "src/sim/random.h"
#include "src/sysv/world.h"

namespace {

using mos::Priority;
using mos::Process;
using msim::kMillisecond;
using msim::kSecond;
using msim::Task;
using msysv::World;
using msysv::WorldOptions;

class ReplicationSoak : public ::testing::TestWithParam<int> {};

TEST_P(ReplicationSoak, RandomSingleCrashNeverLosesPages) {
  const std::uint64_t seed = 0xC0FFEE0000ULL + static_cast<std::uint64_t>(GetParam());
  msim::Rng rng(seed);

  const int sites = static_cast<int>(rng.Between(3, 5));
  const int crash_site = static_cast<int>(rng.Below(static_cast<std::uint64_t>(sites)));
  const msim::Time crash_at =
      static_cast<msim::Time>(rng.Between(10, 400)) * kMillisecond;
  const bool rejoin = (GetParam() % 2) == 1;
  const msim::Time recover_at =
      crash_at + static_cast<msim::Time>(rng.Between(50, 300)) * kMillisecond;
  SCOPED_TRACE(::testing::Message()
               << "sites=" << sites << " crash_site=" << crash_site
               << " crash_at=" << crash_at / kMillisecond << "ms"
               << (rejoin ? " recover_at=" : " (no rejoin, would recover at ")
               << recover_at / kMillisecond << (rejoin ? "ms" : "ms)"));

  WorldOptions opts;
  opts.protocol.replicas = 2;
  opts.protocol.request_timeout_us = 100 * kMillisecond;
  opts.protocol.max_request_attempts = 6;
  opts.protocol.ack_timeout_us = 100 * kMillisecond;
  opts.protocol.op_timeout_us = 2 * kSecond;
  opts.faults.CrashAt(crash_at, crash_site);
  if (rejoin) {
    opts.faults.RecoverAt(recover_at, crash_site);
  }
  World w(sites, opts);
  const int shmid = w.shm(0).Shmget(1, 2048, true).value();

  // Every site runs a read-mostly loop with random writes and pacing; the
  // crashed site's loop simply freezes with it. kPageLost is the one fault
  // outcome the quorum promised away; timeouts mid-failover are retried.
  for (int s = 0; s < sites; ++s) {
    const std::uint64_t site_seed = seed ^ (0x5EEDULL + static_cast<std::uint64_t>(s));
    w.kernel(s).Spawn("soak", Priority::kUser,
                      [&w, s, shmid, site_seed](Process* p) -> Task<> {
      msim::Rng local(site_seed);
      auto& shm = w.shm(s);
      mmem::VAddr base = shm.Shmat(p, shmid).value();
      for (int op = 0; op < 60; ++op) {
        try {
          if (local.Chance(0.3)) {
            co_await shm.WriteWord(p, base, static_cast<std::uint32_t>(op));
          } else {
            (void)co_await shm.ReadWord(p, base);
          }
        } catch (const msysv::PageFaultError& e) {
          EXPECT_NE(e.status(), mmem::FaultStatus::kPageLost)
              << "page lost at site " << s << " (seed " << site_seed << ")";
          co_return;  // this client is collateral damage; the data survived
        }
        co_await w.kernel(s).SleepFor(
            p, static_cast<msim::Duration>(local.Between(1, 20)) * kMillisecond);
      }
    });
  }
  // High-contention seeds (5 sites, write-heavy draws) serialize every write
  // through the library and need ~7 s of simulated time to drain all 60 ops
  // per site; the horizon leaves headroom so the checker below never observes
  // a mid-flight operation as a directory/image mismatch.
  w.RunFor(10 * kSecond);
  w.RunFor(2 * kSecond);  // quiesce: retries, failover, re-spread all settle

  std::uint64_t lost = 0;
  std::vector<mirage::Engine*> engines;
  for (int s = 0; s < sites; ++s) {
    lost += w.engine(s)->stats().pages_lost_in_recovery;
    engines.push_back(w.engine(s));
  }
  EXPECT_EQ(lost, 0u) << "a single crash condemned pages despite replicas=2";

  mirage::InvariantChecker checker(engines);
  mirage::InvariantReport report = checker.CheckFull(w.registry());
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations[0]);

  if (rejoin) {
    // The revived site re-admitted itself and the re-spread restored every
    // page to its full k-standby set — degraded coverage may not outlive
    // the rejoin quiescence.
    EXPECT_EQ(w.faults()->stats().recoveries, 1u);
    EXPECT_EQ(w.engine(crash_site)->stats().rejoins, 1u);
    mirage::InvariantReport coverage = checker.CheckReplicaCoverage(w.registry());
    EXPECT_TRUE(coverage.ok())
        << (coverage.violations.empty() ? "" : coverage.violations[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicationSoak, ::testing::Range(0, 32));

}  // namespace
