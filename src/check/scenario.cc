#include "src/check/scenario.h"

#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "src/check/hb.h"
#include "src/check/sc.h"
#include "src/mirage/invariants.h"
#include "src/sysv/world.h"

namespace mcheck {
namespace {

using mos::Priority;
using mos::Process;
using msim::kMillisecond;
using msim::kSecond;
using msim::Task;
using msysv::World;
using msysv::WorldOptions;

// Same recovery settings the fault tests use: the paper's wait-forever
// defaults would hang every fault scenario by design.
void EnableRecovery(WorldOptions& opts) {
  opts.protocol.request_timeout_us = 100 * kMillisecond;
  opts.protocol.max_request_attempts = 3;
  opts.protocol.ack_timeout_us = 100 * kMillisecond;
  opts.protocol.op_timeout_us = 1 * kSecond;
}

// One scenario run: builds the world, installs the verification stack
// (deferred delivery, controller, HB recorder, per-event physical checks),
// runs the workload to quiescence, and folds every analysis into the result.
class Harness {
 public:
  Harness(int sites, WorldOptions opts, const ScenarioOptions& so, bool check_sc)
      : check_sc_(check_sc) {
    opts.protocol.mutations = so.mutations;
    world_ = std::make_unique<World>(sites, std::move(opts));
    world_->network().SetDeferredDelivery(true);
    hb_.Attach(world_.get());
    for (int s = 0; s < sites; ++s) {
      if (world_->engine(s) != nullptr) {
        engines_.push_back(world_->engine(s));
      }
    }
    checker_ = std::make_unique<mirage::InvariantChecker>(engines_);
    if (so.controller != nullptr) {
      so.controller->SetAfterEvent([this](msim::Time) { SamplePhysical(); });
      world_->sim().SetController(so.controller, so.eps_us);
    }
  }

  World& world() { return *world_; }

  // Runs until done() or the deadline, settles, then runs the final
  // analyses. Every check runs even when the workload hung — a hang plus a
  // physical violation should report both.
  ScenarioResult Finish(const std::function<bool()>& done, msim::Duration deadline,
                        bool check_coverage) {
    ScenarioResult r;
    // An exception escaping the event loop is a checkable outcome in its own
    // right — a seeded mutation driving the protocol into a state the memory
    // model rejects outright (e.g. copying a non-present page) surfaces here
    // rather than killing the exploration.
    try {
      r.completed = world_->RunUntil(done, deadline);
      world_->RunFor(300 * kMillisecond);  // drain in-flight messages and timers
    } catch (const std::exception& e) {
      r.violations.push_back(std::string("crash: ") + e.what());
      r.violations.insert(r.violations.end(), violations_.begin(), violations_.end());
      world_->sim().SetController(nullptr);
      return r;  // post-crash engine state is not worth auditing further
    }
    if (!r.completed) {
      r.violations.push_back("liveness: workload did not quiesce within " +
                             std::to_string(deadline / kMillisecond) + " ms");
    }
    r.violations.insert(r.violations.end(), violations_.begin(), violations_.end());
    mirage::InvariantReport full = checker_->CheckFull(world_->registry());
    for (const std::string& v : full.violations) {
      r.violations.push_back("full: " + v);
    }
    if (check_coverage) {
      mirage::InvariantReport cov = checker_->CheckReplicaCoverage(world_->registry());
      for (const std::string& v : cov.violations) {
        r.violations.push_back("coverage: " + v);
      }
    }
    for (const std::string& v : hb_.races()) {
      r.violations.push_back("hb: " + v);
    }
    if (check_sc_) {
      ScResult sc =
          CheckSequentialConsistency(hb_.traces(), static_cast<int>(hb_.LocCount()));
      r.sc_states = sc.states_explored;
      if (!sc.consistent) {
        r.violations.push_back("sc: " + sc.failure);
      }
    }
    r.accesses = hb_.accesses();
    r.messages = hb_.messages();
    // Detach the controller before teardown: the caller owns it and must
    // not be left wired to a dying simulator.
    world_->sim().SetController(nullptr);
    return r;
  }

 private:
  void SamplePhysical() {
    if (physical_flagged_) {
      return;
    }
    mirage::InvariantReport rep = checker_->CheckPhysical(world_->registry());
    if (!rep.ok()) {
      physical_flagged_ = true;  // report the first window once, not per event
      for (const std::string& v : rep.violations) {
        violations_.push_back("physical@event: " + v);
      }
    }
  }

  bool check_sc_;
  std::unique_ptr<World> world_;
  HbRecorder hb_;
  std::vector<mirage::Engine*> engines_;
  std::unique_ptr<mirage::InvariantChecker> checker_;
  std::vector<std::string> violations_;
  bool physical_flagged_ = false;
};

// ---- rw2: one writer, one reader, one page --------------------------------
// The smallest world with a coherence obligation: site 0 writes twice, site
// 1 reads twice at a variant-swept offset. The second write must invalidate
// the reader's copy (upgrade path) — exactly the window the
// drop_invalidate_ack mutation corrupts.
ScenarioResult RunRw2(const ScenarioOptions& so) {
  Harness h(2, WorldOptions{}, so, /*check_sc=*/true);
  World& w = h.world();
  const int shmid = w.shm(0).Shmget(1, 512, true).value();
  int done = 0;
  w.kernel(0).Spawn("writer", Priority::kUser, [&w, shmid, &done](Process* p) -> Task<> {
    auto& shm = w.shm(0);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    co_await shm.WriteWord(p, base, 1);
    co_await w.kernel(0).SleepFor(p, 1 * kMillisecond);
    co_await shm.WriteWord(p, base, 2);
    ++done;
  });
  w.kernel(1).Spawn("reader", Priority::kUser,
                    [&w, shmid, &done, &so](Process* p) -> Task<> {
    auto& shm = w.shm(1);
    co_await w.kernel(1).SleepFor(p, 200 + so.variant * 400);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    (void)co_await shm.ReadWord(p, base);
    co_await w.kernel(1).SleepFor(p, 1 * kMillisecond);
    (void)co_await shm.ReadWord(p, base);
    ++done;
  });
  return h.Finish([&] { return done == 2; }, 5 * kSecond, /*check_coverage=*/false);
}

// ---- sb2: store-buffering litmus on one page ------------------------------
// Site 0: W x=1; R y.  Site 1: W y=1; R x.  Both words share the page, so
// Mirage's page exclusivity must forbid the r0=r1=0 outcome; the SC witness
// checker proves it for the values actually read.
ScenarioResult RunSb2(const ScenarioOptions& so) {
  Harness h(2, WorldOptions{}, so, /*check_sc=*/true);
  World& w = h.world();
  const int shmid = w.shm(0).Shmget(1, 512, true).value();
  int done = 0;
  for (int s = 0; s < 2; ++s) {
    w.kernel(s).Spawn("litmus", Priority::kUser,
                      [&w, shmid, &done, &so, s](Process* p) -> Task<> {
      auto& shm = w.shm(s);
      mmem::VAddr base = shm.Shmat(p, shmid).value();
      co_await w.kernel(s).SleepFor(p, 100 + s * (100 + so.variant * 150));
      const mmem::VAddr mine = base + static_cast<mmem::VAddr>(4 * s);
      const mmem::VAddr theirs = base + static_cast<mmem::VAddr>(4 * (1 - s));
      co_await shm.WriteWord(p, mine, 1);
      (void)co_await shm.ReadWord(p, theirs);
      ++done;
    });
  }
  return h.Finish([&] { return done == 2; }, 5 * kSecond, /*check_coverage=*/false);
}

// ---- wrw3: write / read / write across three sites ------------------------
// Exercises the downgrade (writer keeps a read copy) followed by a remote
// upgrade: the read set {0,1} must be invalidated before site 2's write.
ScenarioResult RunWrw3(const ScenarioOptions& so) {
  Harness h(3, WorldOptions{}, so, /*check_sc=*/true);
  World& w = h.world();
  const int shmid = w.shm(0).Shmget(1, 512, true).value();
  int done = 0;
  w.kernel(0).Spawn("w0", Priority::kUser, [&w, shmid, &done](Process* p) -> Task<> {
    auto& shm = w.shm(0);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    co_await shm.WriteWord(p, base, 1);
    ++done;
  });
  w.kernel(1).Spawn("r1", Priority::kUser, [&w, shmid, &done, &so](Process* p) -> Task<> {
    auto& shm = w.shm(1);
    co_await w.kernel(1).SleepFor(p, 300 + so.variant * 300);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    (void)co_await shm.ReadWord(p, base);
    co_await w.kernel(1).SleepFor(p, 2 * kMillisecond);
    (void)co_await shm.ReadWord(p, base);
    ++done;
  });
  w.kernel(2).Spawn("w2", Priority::kUser, [&w, shmid, &done, &so](Process* p) -> Task<> {
    auto& shm = w.shm(2);
    co_await w.kernel(2).SleepFor(p, 1 * kMillisecond + so.variant * 300);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    co_await shm.WriteWord(p, base, 2);
    ++done;
  });
  return h.Finish([&] { return done == 3; }, 5 * kSecond, /*check_coverage=*/false);
}

// ---- window17: contended writes under the paper's Δ = 17 ms window --------
// The losing writer's request lands inside the winner's Δ window and is
// refused (kWaitReply); the retry path must still converge and stay
// coherent under reordered deliveries.
ScenarioResult RunWindow17(const ScenarioOptions& so) {
  WorldOptions opts;
  opts.protocol.default_window_us = 17 * kMillisecond;
  Harness h(2, std::move(opts), so, /*check_sc=*/true);
  World& w = h.world();
  const int shmid = w.shm(0).Shmget(1, 512, true).value();
  int done = 0;
  w.kernel(0).Spawn("holder", Priority::kUser, [&w, shmid, &done](Process* p) -> Task<> {
    auto& shm = w.shm(0);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    for (std::uint32_t i = 1; i <= 3; ++i) {
      co_await shm.WriteWord(p, base, i);
      co_await w.kernel(0).SleepFor(p, 2 * kMillisecond);
    }
    ++done;
  });
  w.kernel(1).Spawn("contender", Priority::kUser,
                    [&w, shmid, &done, &so](Process* p) -> Task<> {
    auto& shm = w.shm(1);
    co_await w.kernel(1).SleepFor(p, 500 + so.variant * 700);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    co_await shm.WriteWord(p, base, 10);
    co_await w.kernel(1).SleepFor(p, 2 * kMillisecond);
    (void)co_await shm.ReadWord(p, base);
    ++done;
  });
  return h.Finish([&] { return done == 2; }, 10 * kSecond, /*check_coverage=*/false);
}

// ---- quorum3: k = 2 replication, three committing writers -----------------
// Every committed version must land on a 2-site standby set; the coverage
// check is what the quorum_off_by_one mutation defeats.
ScenarioResult RunQuorum3(const ScenarioOptions& so) {
  WorldOptions opts;
  opts.protocol.replicas = 2;
  Harness h(3, std::move(opts), so, /*check_sc=*/true);
  World& w = h.world();
  const int shmid = w.shm(0).Shmget(1, 1024, true).value();
  int done = 0;
  for (int s = 0; s < 3; ++s) {
    // Variant 1 reverses the commit order (who places replicas first).
    const int slot = so.variant == 0 ? s : 2 - s;
    w.kernel(s).Spawn("committer", Priority::kUser,
                      [&w, shmid, &done, s, slot](Process* p) -> Task<> {
      auto& shm = w.shm(s);
      mmem::VAddr base = shm.Shmat(p, shmid).value();
      co_await w.kernel(s).SleepFor(p, 500 + slot * 2 * kMillisecond);
      const mmem::VAddr word = base + static_cast<mmem::VAddr>(4 * s);
      co_await shm.WriteWord(p, word, static_cast<std::uint32_t>(100 + s));
      co_await w.kernel(s).SleepFor(p, 1 * kMillisecond);
      (void)co_await shm.ReadWord(p, word);
      ++done;
    });
  }
  return h.Finish([&] { return done == 3; }, 10 * kSecond, /*check_coverage=*/true);
}

// ---- failover3: library crash under a stale queued clock op ---------------
// The one timing window where the epoch fence (Engine::StaleEpoch) earns
// its keep: work issued under the old library must still be pending when
// the successor election bumps the segment epoch. A kWaitReply-refused op
// sleeps in the *library's* process and so dies with it; the survivable
// stale artifact is a *queued invalidation* (§6.1's named-but-unbuilt
// optimization, enabled here): the clock site holds the invalidation as a
// timer event stamped with the pre-crash epoch and fires it at window
// expiry, long after the library is gone.
//
//   * P0 runs a 500 ms Δ-window; site 1's write grant at t≈40 ms shields
//     its writable copy until t≈540 ms;
//   * site 2 writes P0 at t=100 ms: the clock check at site 1 queues the
//     invalidate-for-writer — old epoch — for t≈540 ms; the requester's
//     two 60 ms attempts die with the library and site 2 gives up on P0;
//   * the library crashes (variants sweep t=150..285 ms) and site 2's P1
//     reads from t=330 ms detect it and elect a successor, which rebuilds
//     the directory: P0 writer = site 1, epoch bumped;
//   * at t≈540 ms the stale op fires at site 1. The fence must discard it;
//     the skip_epoch_fence mutation instead lets it invalidate site 1's
//     copy and grant P0 writable to site 2 — reality now contradicts the
//     reconstructed directory, which CheckFull reports.
//
// P1 is written by site 1 during setup (so its contents survive on the
// commit quorum) and carries no Δ-window, keeping the election driver's
// reads orthogonal to the parked P0 op.
ScenarioResult RunFailover3(const ScenarioOptions& so) {
  WorldOptions opts;
  opts.protocol.request_timeout_us = 60 * kMillisecond;
  opts.protocol.max_request_attempts = 2;
  opts.protocol.ack_timeout_us = 100 * kMillisecond;
  opts.protocol.op_timeout_us = 1 * kSecond;
  opts.protocol.replicas = 2;
  opts.protocol.queued_invalidation = true;
  opts.faults.CrashAt(150 * kMillisecond + so.variant * 15 * kMillisecond, 0);
  Harness h(3, std::move(opts), so, /*check_sc=*/false);
  World& w = h.world();
  const int shmid = w.shm(0).Shmget(1, 1024, true).value();
  int done = 0;
  // Only P0 gets the long window — before any grant, so site 1's writable
  // copy is shielded from the moment it is installed.
  (void)w.shm(0).ShmSetWindow(shmid, 500 * kMillisecond, 0);
  w.kernel(1).Spawn("holder", Priority::kUser,
                    [&w, shmid, &done](Process* p) -> Task<> {
    auto& shm = w.shm(1);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    co_await w.kernel(1).SleepFor(p, 10 * kMillisecond);
    co_await shm.WriteWord(p, base, 1);  // P0: writer + clock site, Δ-shielded
    co_await shm.WriteWord(p, base + mmem::kPageSize, 7);  // P1 onto the quorum
    ++done;
  });
  w.kernel(2).Spawn("contender", Priority::kUser,
                    [&w, shmid, &done](Process* p) -> Task<> {
    auto& shm = w.shm(2);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    co_await w.kernel(2).SleepFor(p, 100 * kMillisecond);
    // One attempt only: the point is to leave a stale invalidation queued
    // at site 1, not to win P0. The request itself dies with the library.
    try {
      co_await shm.WriteWord(p, base, 2);
    } catch (const msysv::PageFaultError&) {
      // expected: refused by the Δ-window, then orphaned by the crash
    }
    // From t≈330 ms (after every variant's crash instant) fault on P1:
    // the dead library makes the attempts time out, electing the successor
    // well before the stale op's t≈540 ms alarm.
    co_await w.kernel(2).SleepFor(p, 110 * kMillisecond);
    for (int attempt = 0; attempt < 8; ++attempt) {
      bool ok = true;
      try {
        (void)co_await shm.ReadWord(p, base + mmem::kPageSize);
      } catch (const msysv::PageFaultError&) {
        ok = false;  // first attempts can die with the old library
      }
      if (ok) {
        break;
      }
      co_await w.kernel(2).SleepFor(p, 100 * kMillisecond);
    }
    ++done;
  });
  return h.Finish([&] { return done == 2; }, 60 * kSecond, /*check_coverage=*/false);
}

// ---- rejoin3: standby crash + amnesiac rejoin, re-spread to full k --------
// Site 2 holds a copy, dies, and rejoins mid-run; continued commits must
// re-spread standbys back onto it (CheckReplicaCoverage at the end).
ScenarioResult RunRejoin3(const ScenarioOptions& so) {
  WorldOptions opts;
  EnableRecovery(opts);
  opts.protocol.replicas = 2;
  opts.faults.CrashAt(15 * kMillisecond + so.variant * 5 * kMillisecond, 2)
      .RecoverAt(70 * kMillisecond, 2);
  Harness h(3, std::move(opts), so, /*check_sc=*/false);
  World& w = h.world();
  const int shmid = w.shm(0).Shmget(1, 512, true).value();
  int done = 0;
  // Site 2 attaches before its crash so the rejoin announce covers the
  // segment; the process itself dies with the site.
  w.kernel(2).Spawn("doomed", Priority::kUser, [&w, shmid](Process* p) -> Task<> {
    auto& shm = w.shm(2);
    co_await w.kernel(2).SleepFor(p, 2 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    (void)co_await shm.ReadWord(p, base);
    co_await w.kernel(2).SleepFor(p, 10 * kSecond);
  });
  w.kernel(0).Spawn("writer", Priority::kUser, [&w, shmid, &done](Process* p) -> Task<> {
    auto& shm = w.shm(0);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    for (std::uint32_t i = 1; i <= 18; ++i) {
      co_await shm.WriteWord(p, base, i);
      co_await w.kernel(0).SleepFor(p, 5 * kMillisecond);
    }
    ++done;
  });
  w.kernel(1).Spawn("reader", Priority::kUser, [&w, shmid, &done](Process* p) -> Task<> {
    auto& shm = w.shm(1);
    co_await w.kernel(1).SleepFor(p, 3 * kMillisecond);
    mmem::VAddr base = shm.Shmat(p, shmid).value();
    for (int lap = 0; lap < 15 && done < 1; ++lap) {
      (void)co_await shm.ReadWord(p, base);
      co_await w.kernel(1).SleepFor(p, 4 * kMillisecond);
    }
    ++done;
  });
  ScenarioResult r = h.Finish([&] { return done == 2; }, 30 * kSecond,
                              /*check_coverage=*/true);
  return r;
}

}  // namespace

const std::vector<ScenarioInfo>& Scenarios() {
  static const std::vector<ScenarioInfo> kScenarios = {
      {"rw2", "writer/reader pair, upgrade invalidation window", 2, 4, RunRw2},
      {"sb2", "store-buffering litmus, both words on one page", 2, 3, RunSb2},
      {"wrw3", "write-read-write chain across three sites", 3, 4, RunWrw3},
      {"window17", "contended writes under the paper's 17 ms window", 2, 4, RunWindow17},
      {"quorum3", "k=2 replication, three committing writers", 3, 2, RunQuorum3},
      {"failover3", "library crash mid-invalidation, successor election", 3, 10,
       RunFailover3},
      {"rejoin3", "standby crash + amnesiac rejoin, re-spread to k", 3, 4, RunRejoin3},
  };
  return kScenarios;
}

const ScenarioInfo* FindScenario(const std::string& name) {
  for (const ScenarioInfo& s : Scenarios()) {
    if (name == s.name) {
      return &s;
    }
  }
  return nullptr;
}

}  // namespace mcheck
