// Unit tests for the discrete-event simulator core: event ordering,
// cancellation, serial run-ahead, and coroutine tasks.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/mirage/engine.h"
#include "src/net/network.h"
#include "src/os/kernel.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/sysv/world.h"
#include "src/workload/kvstore.h"
#include "src/workload/pingpong.h"
#include "src/workload/readwriters.h"
#include "src/workload/scalability.h"

namespace {

using msim::Duration;
using msim::Rng;
using msim::Simulator;
using msim::Task;
using msim::Time;

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_TRUE(sim.Empty());
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(Simulator, SameTimeEventsFireFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.Schedule(100, [&] {
    sim.Schedule(-50, [&] { EXPECT_EQ(sim.Now(), 100); });
  });
  sim.Run();
  EXPECT_EQ(sim.Now(), 100);
}

TEST(Simulator, EventsScheduledDuringEventRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] {
    sim.Schedule(5, [&] {
      fired = 1;
      EXPECT_EQ(sim.Now(), 15);
    });
  });
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelPreventsEvent) {
  Simulator sim;
  bool fired = false;
  msim::EventId id = sim.Schedule(10, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // second cancel is a no-op
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  std::vector<Time> fired;
  sim.Schedule(10, [&] { fired.push_back(sim.Now()); });
  sim.Schedule(50, [&] { fired.push_back(sim.Now()); });
  sim.RunUntil(20);
  EXPECT_EQ(fired.size(), 1u);
  EXPECT_EQ(sim.Now(), 20);
  sim.RunUntil(100);
  EXPECT_EQ(fired.size(), 2u);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.Schedule(i, [&] {
      ++count;
      if (count == 3) {
        sim.Stop();
      }
    });
  }
  sim.Run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.PendingEvents(), 7u);
}

TEST(Simulator, MaxEventsGuard) {
  Simulator sim;
  // A self-perpetuating event chain must be stopped by the guard.
  std::function<void()> again = [&] { sim.Schedule(1, again); };
  sim.Schedule(1, again);
  std::uint64_t n = sim.Run(1000);
  EXPECT_EQ(n, 1000u);
}

// ---- coroutine tasks ----

Task<int> ReturnForty() { co_return 40; }

Task<int> AddTwo() {
  int v = co_await ReturnForty();
  co_return v + 2;
}

TEST(Task, NestedTasksPropagateValues) {
  Task<int> t = AddTwo();
  bool done = false;
  t.Start([&] { done = true; });
  EXPECT_TRUE(done);
  EXPECT_EQ(t.Result(), 42);
}

Task<> Thrower() {
  throw std::runtime_error("boom");
  co_return;  // unreachable; makes this a coroutine
}

Task<> CatchesChild() {
  EXPECT_THROW(co_await Thrower(), std::runtime_error);
}

TEST(Task, ExceptionsPropagateToAwaiter) {
  Task<> t = CatchesChild();
  t.Start();
  EXPECT_TRUE(t.Done());
}

TEST(Task, RootExceptionStored) {
  Task<> t = Thrower();
  t.Start();
  EXPECT_TRUE(t.Done());
  EXPECT_THROW(t.CheckResult(), std::runtime_error);
}

// co_await Sleep{&sim, d}: resumes the coroutine from a simulator event d
// microseconds of virtual time later.
struct Sleep {
  Simulator* sim;
  Duration delay;
  bool await_ready() const noexcept { return delay <= 0; }
  void await_suspend(std::coroutine_handle<> h) {
    sim->Schedule(delay, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

Task<> SleepTwice(Simulator& sim, std::vector<Time>* out) {
  co_await Sleep{&sim, 100};
  out->push_back(sim.Now());
  co_await Sleep{&sim, 50};
  out->push_back(sim.Now());
}

TEST(Task, SleepAdvancesVirtualTime) {
  Simulator sim;
  std::vector<Time> times;
  Task<> t = SleepTwice(sim, &times);
  t.Start();
  sim.Run();
  EXPECT_EQ(times, (std::vector<Time>{100, 150}));
  EXPECT_TRUE(t.Done());
}

TEST(Rng, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, BetweenStaysInRange) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = r.Between(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}


// ---------------------------------------------------------------------------
// Golden event-order determinism tests.
//
// These literals were captured from the pre-heap std::map event queue (keyed
// (time, id)) running the exact workloads below. The heap-based queue must
// reproduce them byte-for-byte: (time, seq)-ordered dispatch with FIFO at
// equal timestamps is the simulator's determinism contract, and every
// experiment report in EXPERIMENTS.md depends on it. If either test fails
// after a queue change, the change reordered events — fix the queue, never
// the literals.

struct GoldenPacket {
  Time at;
  int src;
  int dst;
  unsigned type;
};

static const std::pair<msim::Time, int> kGoldenSimOrder[] = {
    {1, 177},     {7, 229},     {8, 148},     {14, 108},
    {20, 132},     {31, 300},     {36, 52},     {42, 166},
    {46, 12},     {46, 288},     {50, 161},     {51, 59},
    {51, 301},     {55, 198},     {56, 13},     {56, 226},
    {57, 137},     {62, 305},     {64, 100},     {67, 302},
    {70, 263},     {72, 303},     {75, 306},     {78, 71},
    {79, 308},     {82, 203},     {83, 135},     {86, 260},
    {87, 212},     {89, 235},     {90, 98},     {94, 276},
    {95, 307},     {98, 120},     {98, 304},     {106, 66},
    {110, 218},     {111, 271},     {119, 46},     {119, 311},
    {122, 197},     {123, 42},     {125, 309},     {126, 310},
    {129, 171},     {131, 63},     {133, 313},     {135, 283},
    {139, 96},     {153, 102},     {153, 314},     {158, 147},
    {161, 312},     {163, 315},     {164, 111},     {169, 294},
    {171, 27},     {171, 291},     {173, 125},     {179, 87},
    {182, 316},     {186, 130},     {186, 239},     {187, 122},
    {188, 11},     {189, 214},     {192, 192},     {195, 107},
    {195, 202},     {199, 184},     {200, 318},     {201, 174},
    {202, 317},     {203, 252},     {206, 266},     {209, 321},
    {211, 320},     {212, 323},     {213, 319},     {215, 261},
    {218, 325},     {222, 204},     {231, 88},     {234, 322},
    {239, 167},     {241, 124},     {247, 190},     {248, 1},
    {249, 67},     {250, 324},     {252, 61},     {252, 329},
    {257, 227},     {257, 328},     {258, 208},     {259, 326},
    {259, 327},     {260, 97},     {263, 121},     {264, 188},
    {270, 25},     {271, 163},     {274, 160},     {275, 195},
    {281, 139},     {282, 54},     {284, 86},     {286, 330},
    {287, 199},     {296, 133},     {297, 251},     {298, 48},
    {298, 154},     {300, 272},     {303, 75},     {307, 18},
    {308, 22},     {310, 32},     {311, 26},     {312, 332},
    {314, 55},     {318, 228},     {320, 333},     {322, 140},
    {325, 3},     {326, 79},     {327, 234},     {331, 36},
    {336, 331},     {347, 126},     {353, 237},     {354, 119},
    {355, 158},     {357, 104},     {358, 19},     {360, 335},
    {363, 336},     {364, 176},     {365, 243},     {366, 338},
    {367, 215},     {367, 339},     {368, 334},     {373, 6},
    {374, 35},     {375, 299},     {376, 216},     {379, 14},
    {381, 241},     {383, 60},     {383, 150},     {384, 180},
    {385, 62},     {390, 201},     {399, 337},     {400, 344},
    {403, 342},     {408, 183},     {416, 340},     {418, 144},
    {418, 153},     {420, 343},     {421, 72},     {422, 175},
    {425, 123},     {430, 84},     {430, 341},     {431, 281},
    {433, 37},     {434, 244},     {434, 296},     {436, 53},
    {436, 287},     {440, 78},     {449, 345},     {453, 7},
    {454, 44},     {458, 20},     {460, 282},     {461, 128},
    {470, 349},     {477, 346},     {482, 347},     {489, 350},
    {490, 274},     {497, 145},     {500, 348},     {503, 149},
    {503, 191},     {513, 194},     {515, 39},     {519, 134},
    {520, 351},     {527, 264},     {532, 179},     {535, 173},
    {536, 193},     {538, 353},     {541, 354},     {542, 231},

};

static const GoldenPacket kGoldenPacketOrder[] = {
    {10525, 1, 0, 1},
    {31892, 0, 1, 6},
    {44617, 1, 0, 8},
    {55567, 0, 1, 2},
    {79893, 1, 0, 6},
    {89033, 1, 0, 1},
    {104118, 0, 1, 6},
    {116843, 1, 0, 8},
    {127793, 0, 1, 2},
    {146561, 1, 0, 6},
    {155707, 1, 0, 1},
    {170786, 0, 1, 6},
    {183511, 1, 0, 8},
    {194461, 0, 1, 2},
    {213229, 1, 0, 6},
    {222375, 1, 0, 1},
    {237454, 0, 1, 6},
    {250179, 1, 0, 8},
    {261129, 0, 1, 2},
    {279897, 1, 0, 6},
    {289043, 1, 0, 1},
    {304122, 0, 1, 6},
    {316847, 1, 0, 8},
    {327797, 0, 1, 2},
    {341022, 1, 0, 6},
};

TEST(SimulatorGolden, EventOrderMatchesPreHeapQueue) {
  Simulator sim;
  Rng rng(0xF16E8);
  std::vector<std::pair<Time, int>> fired;
  std::vector<msim::EventId> live;
  int next_k = 0;
  // A seeded mix of schedules, nested reschedules from inside events, and
  // random cancellations; k is the closure's creation index, so the record
  // is independent of queue internals.
  auto schedule = [&](auto&& self, Duration d) -> void {
    int k = next_k++;
    live.push_back(sim.Schedule(d, [&, k, self]() {
      fired.emplace_back(sim.Now(), k);
      if (rng.Below(4) == 0) {
        self(self, static_cast<Duration>(rng.Below(50)));
      }
    }));
  };
  for (int i = 0; i < 300; ++i) {
    schedule(schedule, static_cast<Duration>(rng.Below(1000)));
    if (i % 7 == 3 && !live.empty()) {
      sim.Cancel(live[rng.Below(live.size())]);
    }
  }
  sim.Run(400);
  const std::size_t n = sizeof(kGoldenSimOrder) / sizeof(kGoldenSimOrder[0]);
  ASSERT_GE(fired.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(fired[i].first, kGoldenSimOrder[i].first) << "firing " << i;
    EXPECT_EQ(fired[i].second, kGoldenSimOrder[i].second) << "firing " << i;
  }
}

TEST(SimulatorGolden, ProtocolPacketOrderMatchesPreHeapQueue) {
  msysv::WorldOptions opts;
  opts.protocol.default_window_us = 0;  // maximize cross-site transfers
  msysv::World world(2, opts);
  std::vector<GoldenPacket> seen;
  world.network().AddObserver([&](const mnet::Packet& p, Time t) {
    if (seen.size() < 160) {
      seen.push_back(GoldenPacket{t, static_cast<int>(p.src), static_cast<int>(p.dst), p.type});
    }
  });
  mwork::ReadWritersParams prm;
  prm.iterations = 4000;
  auto r = mwork::LaunchReadWriters(world, prm);
  world.RunUntil([&] { return r->completed(); }, 60 * msim::kSecond);
  // The fingerprint pins the full interleaving, not just the packet list:
  // final virtual time and total event count catch any divergence the first
  // 160 deliveries miss.
  EXPECT_EQ(world.sim().Now(), 416675);
  EXPECT_EQ(world.sim().ProcessedEvents(), 8283u);
  const std::size_t n = sizeof(kGoldenPacketOrder) / sizeof(kGoldenPacketOrder[0]);
  ASSERT_EQ(seen.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(seen[i].at, kGoldenPacketOrder[i].at) << "packet " << i;
    EXPECT_EQ(seen[i].src, kGoldenPacketOrder[i].src) << "packet " << i;
    EXPECT_EQ(seen[i].dst, kGoldenPacketOrder[i].dst) << "packet " << i;
    EXPECT_EQ(seen[i].type, kGoldenPacketOrder[i].type) << "packet " << i;
  }
}

// ------------------------------------------------------------------------
// Cancel semantics under lazy tombstoning.

TEST(SimulatorCancel, CancelAfterFireIsHarmlessNoOp) {
  Simulator sim;
  int fired = 0;
  msim::EventId id = sim.Schedule(5, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.Cancel(id));  // already fired: no effect, no crash
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorCancel, StaleIdNeverCancelsASlotReuse) {
  Simulator sim;
  int first = 0;
  int second = 0;
  msim::EventId id = sim.Schedule(1, [&] { ++first; });
  sim.Run();
  // The pooled slot is recycled for the next event; the old id's generation
  // no longer matches and must not cancel the newcomer.
  sim.Schedule(1, [&] { ++second; });
  EXPECT_FALSE(sim.Cancel(id));
  sim.Run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(SimulatorCancel, UnknownIdIsRejected) {
  Simulator sim;
  EXPECT_FALSE(sim.Cancel(0));
  EXPECT_FALSE(sim.Cancel(0xDEADBEEFCAFEULL));
  sim.Schedule(1, [] {});
  EXPECT_FALSE(sim.Cancel(0));  // id 0 is never a live event
  EXPECT_EQ(sim.PendingEvents(), 1u);
}

TEST(SimulatorCancel, PendingEventsExcludesTombstones) {
  Simulator sim;
  std::vector<msim::EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sim.Schedule(100 + i, [] {}));
  }
  EXPECT_EQ(sim.PendingEvents(), 10u);
  for (int i = 0; i < 10; i += 2) {
    EXPECT_TRUE(sim.Cancel(ids[i]));
  }
  // The five tombstones still sit in the queue internally, but they are not
  // pending events.
  EXPECT_EQ(sim.PendingEvents(), 5u);
  EXPECT_FALSE(sim.Empty());
  EXPECT_EQ(sim.Run(), 5u);
  EXPECT_TRUE(sim.Empty());
}

TEST(SimulatorCancel, EmptyWithOnlyTombstonesLeft) {
  Simulator sim;
  msim::EventId a = sim.Schedule(10, [] {});
  msim::EventId b = sim.Schedule(20, [] {});
  EXPECT_TRUE(sim.Cancel(a));
  EXPECT_TRUE(sim.Cancel(b));
  EXPECT_TRUE(sim.Empty());
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(sim.Run(), 0u);
  EXPECT_EQ(sim.Now(), 0);  // nothing fired, clock never moved
}

TEST(SimulatorCancel, RunUntilWithTombstoneAtQueueHead) {
  Simulator sim;
  int fired_at = -1;
  msim::EventId head = sim.Schedule(5, [] {});
  sim.Schedule(15, [&] { fired_at = static_cast<int>(sim.Now()); });
  EXPECT_TRUE(sim.Cancel(head));
  // The tombstone at the head must be skipped, not treated as the next
  // event time.
  EXPECT_EQ(sim.RunUntil(10), 0u);
  EXPECT_EQ(sim.Now(), 10);
  EXPECT_EQ(sim.RunUntil(20), 1u);
  EXPECT_EQ(fired_at, 15);
}

TEST(SimulatorCancel, MassCancellationCompactsAndStaysCorrect) {
  Simulator sim;
  std::vector<msim::EventId> ids;
  int fired = 0;
  // Far-future events that all get cancelled exercise the heap compaction
  // path; the survivors must still fire in exact order.
  for (int i = 0; i < 2000; ++i) {
    ids.push_back(sim.Schedule(1000 + i, [&] { ++fired; }));
  }
  for (int i = 0; i < 2000; ++i) {
    if (i % 100 != 0) {
      EXPECT_TRUE(sim.Cancel(ids[i]));
    }
  }
  EXPECT_EQ(sim.PendingEvents(), 20u);
  EXPECT_EQ(sim.Run(), 20u);
  EXPECT_EQ(fired, 20);
  EXPECT_EQ(sim.Now(), 1000 + 1900);
}

// ------------------------------------------------------------------------
// Conservative parallel execution (DESIGN.md §12): a parallel world must be
// observably indistinguishable from the serial one — same final virtual
// time, same event count, same packet interleaving.

struct WorldFingerprint {
  std::vector<GoldenPacket> packets;
  Time now = 0;
  std::uint64_t events = 0;
};

WorldFingerprint RunScalabilityWorld(int sites, int workers) {
  msysv::WorldOptions opts;
  // A modest retention window, as in the scalematrix preset: with Delta = 0
  // the hot page thrashes and many-reader rounds never converge.
  opts.protocol.default_window_us = 50 * msim::kMillisecond;
  opts.parallel_ok = true;
  opts.sim_workers = workers;
  msysv::World world(sites, opts);
  WorldFingerprint fp;
  world.network().AddObserver([&](const mnet::Packet& p, Time t) {
    fp.packets.push_back(
        GoldenPacket{t, static_cast<int>(p.src), static_cast<int>(p.dst), p.type});
  });
  mwork::ScalabilityParams prm;
  prm.rounds = 6;
  auto r = mwork::LaunchScalability(world, prm);
  world.RunUntil([&] { return r->completed; }, 120 * msim::kSecond);
  EXPECT_TRUE(r->completed);
  fp.now = world.sim().Now();
  fp.events = world.sim().ProcessedEvents();
  return fp;
}

TEST(SimulatorParallel, GoldenWorldIdenticalAtTwoWorkers) {
  // The exact scenario of SimulatorGolden.ProtocolPacketOrderMatchesPreHeapQueue,
  // run on two partitions: every golden constant must still hold.
  msysv::WorldOptions opts;
  opts.protocol.default_window_us = 0;
  opts.parallel_ok = true;
  opts.sim_workers = 2;
  msysv::World world(2, opts);
  std::vector<GoldenPacket> seen;
  world.network().AddObserver([&](const mnet::Packet& p, Time t) {
    if (seen.size() < 160) {
      seen.push_back(GoldenPacket{t, static_cast<int>(p.src), static_cast<int>(p.dst), p.type});
    }
  });
  mwork::ReadWritersParams prm;
  prm.iterations = 4000;
  auto r = mwork::LaunchReadWriters(world, prm);
  world.RunUntil([&] { return r->completed(); }, 60 * msim::kSecond);
  EXPECT_EQ(world.sim().workers(), 2);
  EXPECT_EQ(world.sim().Now(), 416675);
  EXPECT_EQ(world.sim().ProcessedEvents(), 8283u);
  const std::size_t n = sizeof(kGoldenPacketOrder) / sizeof(kGoldenPacketOrder[0]);
  ASSERT_EQ(seen.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(seen[i].at, kGoldenPacketOrder[i].at) << "packet " << i;
    EXPECT_EQ(seen[i].src, kGoldenPacketOrder[i].src) << "packet " << i;
    EXPECT_EQ(seen[i].dst, kGoldenPacketOrder[i].dst) << "packet " << i;
    EXPECT_EQ(seen[i].type, kGoldenPacketOrder[i].type) << "packet " << i;
  }
}

TEST(SimulatorParallel, MultiSiteWorldIdenticalAcrossWorkerCounts) {
  const WorldFingerprint serial = RunScalabilityWorld(6, 1);
  ASSERT_GT(serial.packets.size(), 0u);
  for (int w : {2, 4}) {
    const WorldFingerprint par = RunScalabilityWorld(6, w);
    EXPECT_EQ(par.now, serial.now) << "workers=" << w;
    EXPECT_EQ(par.events, serial.events) << "workers=" << w;
    ASSERT_EQ(par.packets.size(), serial.packets.size()) << "workers=" << w;
    for (std::size_t i = 0; i < serial.packets.size(); ++i) {
      EXPECT_EQ(par.packets[i].at, serial.packets[i].at) << "w=" << w << " packet " << i;
      EXPECT_EQ(par.packets[i].src, serial.packets[i].src) << "w=" << w << " packet " << i;
      EXPECT_EQ(par.packets[i].dst, serial.packets[i].dst) << "w=" << w << " packet " << i;
      EXPECT_EQ(par.packets[i].type, serial.packets[i].type) << "w=" << w << " packet " << i;
    }
  }
}

// Always takes the FIFO pick. Installing it moves a simulator onto the
// controlled dispatch path, which fires in exact (time, seq) order.
struct FifoController : msim::ScheduleController {
  std::size_t ChooseNext(const std::vector<msim::SchedCandidate>& eligible) override {
    (void)eligible;
    return 0;
  }
};

TEST(SimulatorParallel, WorkersAndControllerAreMutuallyExclusive) {
  FifoController ctrl;
  Simulator sim;
  sim.SetWorkers(2);
  EXPECT_THROW(sim.SetController(&ctrl), std::logic_error);
  sim.SetWorkers(1);
  sim.SetController(&ctrl);
  EXPECT_THROW(sim.SetWorkers(2), std::logic_error);
  sim.SetController(nullptr);
  sim.SetWorkers(2);
  EXPECT_EQ(sim.workers(), 2);
}

TEST(SimulatorParallel, SetWorkersRejectedWithEventsPending) {
  Simulator sim;
  sim.Schedule(10, [] {});
  EXPECT_THROW(sim.SetWorkers(2), std::logic_error);
  sim.Run();
  sim.SetWorkers(2);  // legal once the queue drained
  EXPECT_EQ(sim.workers(), 2);
}

// ------------------------------------------------------------------------
// Serial run-ahead (DESIGN.md §10.7): TryRunAhead claims a follow-up only
// when the serial dispatcher would have fired it next anyway.

TEST(SimulatorRunAhead, ClaimsOnlyWhatWouldFireNext) {
  Simulator sim;
  EXPECT_FALSE(sim.TryRunAhead(5));  // no run in progress
  std::vector<bool> claims;
  std::vector<Time> times;
  sim.Schedule(0, [&] {
    claims.push_back(sim.TryRunAhead(50));  // ties the pending event at 50
    claims.push_back(sim.TryRunAhead(49));  // strictly before it
    times.push_back(sim.Now());
    claims.push_back(sim.TryRunAhead(1));  // 50: a tie again
  });
  sim.Schedule(50, [&] {
    times.push_back(sim.Now());
    claims.push_back(sim.TryRunAhead(7));  // nothing else pending
    times.push_back(sim.Now());
  });
  EXPECT_EQ(sim.Run(), 4u);  // two fired, two claimed
  EXPECT_EQ(claims, (std::vector<bool>{false, true, false, true}));
  EXPECT_EQ(times, (std::vector<Time>{49, 50, 57}));
  EXPECT_EQ(sim.ProcessedEvents(), 4u);
  EXPECT_EQ(sim.RunAheadEvents(), 2u);
}

TEST(SimulatorRunAhead, StaysWithinTheDeadline) {
  Simulator sim;
  std::vector<bool> claims;
  sim.Schedule(0, [&] {
    claims.push_back(sim.TryRunAhead(21));
    claims.push_back(sim.TryRunAhead(20));  // deadlines are inclusive
  });
  EXPECT_EQ(sim.RunUntil(20), 2u);
  EXPECT_EQ(claims, (std::vector<bool>{false, true}));
  EXPECT_EQ(sim.Now(), 20);
}

TEST(SimulatorRunAhead, StaysWithinTheEventBudget) {
  Simulator sim;
  int claimed = 0;
  sim.Schedule(0, [&] {
    while (claimed < 100 && sim.TryRunAhead(1)) {
      ++claimed;
    }
  });
  EXPECT_EQ(sim.Run(4), 4u);
  EXPECT_EQ(claimed, 3);
  EXPECT_EQ(sim.Now(), 3);
  EXPECT_EQ(sim.ProcessedEvents(), 4u);
}

TEST(SimulatorRunAhead, RefusedOnceStopIsRequested) {
  Simulator sim;
  bool claimed = true;
  sim.Schedule(0, [&] {
    sim.Stop();
    claimed = sim.TryRunAhead(1);
  });
  sim.Run();
  EXPECT_FALSE(claimed);
  EXPECT_EQ(sim.Now(), 0);
}

TEST(SimulatorRunAhead, RefusedUnderAControllerAndInParallelMode) {
  FifoController fifo;
  Simulator controlled;
  controlled.SetController(&fifo);
  bool claimed = true;
  controlled.Schedule(0, [&] { claimed = controlled.TryRunAhead(1); });
  controlled.Run();
  EXPECT_FALSE(claimed);

  Simulator parallel;
  parallel.SetWorkers(2);
  claimed = true;
  parallel.Schedule(0, [&] { claimed = parallel.TryRunAhead(1); });
  parallel.Run();
  EXPECT_FALSE(claimed);
}

TEST(SimulatorRunAhead, NestedRunsAreRefusedAndLeaveTheSimulatorUsable) {
  Simulator sim;
  sim.Schedule(1, [&] { sim.Run(); });
  EXPECT_THROW(sim.Run(), std::logic_error);
  bool claimed = false;
  sim.Schedule(1, [&] { claimed = sim.TryRunAhead(1); });
  EXPECT_EQ(sim.Run(), 2u);
  EXPECT_TRUE(claimed);
}

// Differential check: each world runs once on the plain dispatcher, which
// runs compute slices ahead, and once under FifoController, which fires the
// same (time, seq) order through the heap and never runs ahead. Everything
// the run leaves behind must match.
struct WorldOutcome {
  std::uint64_t events = 0;
  Time now = 0;
  std::uint64_t packets = 0;
  std::map<std::uint32_t, std::uint64_t> packets_by_type;
  std::vector<mos::KernelStats> kernels;
  std::vector<mirage::EngineStats> engines;
  std::vector<double> results;  // the workload's own result fields
  std::uint64_t ran_ahead = 0;
};

WorldOutcome Outcome(msysv::World& world, std::vector<double> results) {
  WorldOutcome o;
  o.events = world.sim().ProcessedEvents();
  o.now = world.sim().Now();
  o.packets = world.network().stats().packets;
  o.packets_by_type = world.network().stats().packets_by_type;
  for (int s = 0; s < world.site_count(); ++s) {
    o.kernels.push_back(world.kernel(s).stats());
    o.engines.push_back(world.engine(s)->stats());
  }
  o.results = std::move(results);
  o.ran_ahead = world.sim().RunAheadEvents();
  return o;
}

void ExpectSameOutcome(const WorldOutcome& plain, const WorldOutcome& fifo) {
  EXPECT_GT(plain.ran_ahead, 0u);
  EXPECT_EQ(fifo.ran_ahead, 0u);
  EXPECT_EQ(plain.events, fifo.events);
  EXPECT_EQ(plain.now, fifo.now);
  EXPECT_GT(plain.packets, 0u);
  EXPECT_EQ(plain.packets, fifo.packets);
  EXPECT_EQ(plain.packets_by_type, fifo.packets_by_type);
  ASSERT_EQ(plain.kernels.size(), fifo.kernels.size());
  for (std::size_t s = 0; s < plain.kernels.size(); ++s) {
    EXPECT_TRUE(plain.kernels[s] == fifo.kernels[s]) << "KernelStats of site " << s;
    EXPECT_TRUE(plain.engines[s] == fifo.engines[s]) << "EngineStats of site " << s;
  }
  EXPECT_EQ(plain.results, fifo.results);
}

WorldOutcome RunReadWritersWorld(msim::ScheduleController* ctrl) {
  msysv::WorldOptions opts;
  opts.protocol.default_window_us = 120 * msim::kMillisecond;
  msysv::World world(2, opts);
  world.sim().SetController(ctrl);
  mwork::ReadWritersParams prm;
  prm.iterations = 20000;
  auto r = mwork::LaunchReadWriters(world, prm);
  world.RunUntil([&] { return r->completed(); }, 60 * msim::kSecond);
  EXPECT_TRUE(r->completed());
  return Outcome(world, {static_cast<double>(r->total_ops()),
                         static_cast<double>(r->start_time()),
                         static_cast<double>(r->end_time())});
}

WorldOutcome RunReplicatedRingWorld(msim::ScheduleController* ctrl) {
  msysv::WorldOptions opts;
  opts.protocol.default_window_us = 16667;  // one tick
  opts.protocol.replicas = 2;
  msysv::World world(4, opts);
  world.sim().SetController(ctrl);
  mwork::RingPingPongParams prm;
  prm.rounds = 10;
  auto r = mwork::LaunchRingPingPong(world, prm);
  world.RunUntil([&] { return r->completed(); }, 120 * msim::kSecond);
  EXPECT_TRUE(r->completed());
  return Outcome(world, {static_cast<double>(r->cycles), static_cast<double>(r->start_time),
                         static_cast<double>(r->end_time)});
}

WorldOutcome RunKvStoreWorld(msim::ScheduleController* ctrl) {
  msysv::World world(4);
  world.sim().SetController(ctrl);
  mwork::KvStoreParams prm;
  prm.keys = 64;
  prm.ops_per_site = 60;
  prm.zipf_s = 0.99;
  prm.arrival_per_s = 240.0;
  auto r = mwork::LaunchKvStore(world, prm);
  world.RunUntil([&] { return r->completed(); }, 300 * msim::kSecond);
  EXPECT_TRUE(r->completed());
  return Outcome(world, {static_cast<double>(r->gets()), static_cast<double>(r->sets()),
                         static_cast<double>(r->misses()), static_cast<double>(r->torn_reads()),
                         static_cast<double>(r->integrity_failures()),
                         static_cast<double>(r->queue_peak()),
                         static_cast<double>(r->queue_depth_sum()),
                         static_cast<double>(r->start_time()),
                         static_cast<double>(r->end_time()), r->get_latency().MeanMs(),
                         r->set_latency().MeanMs()});
}

TEST(SimulatorRunAhead, ReadWritersWorldMatchesControlledFifo) {
  FifoController fifo;
  ExpectSameOutcome(RunReadWritersWorld(nullptr), RunReadWritersWorld(&fifo));
}

TEST(SimulatorRunAhead, ReplicatedRingWorldMatchesControlledFifo) {
  FifoController fifo;
  ExpectSameOutcome(RunReplicatedRingWorld(nullptr), RunReplicatedRingWorld(&fifo));
}

TEST(SimulatorRunAhead, KvStoreWorldMatchesControlledFifo) {
  FifoController fifo;
  ExpectSameOutcome(RunKvStoreWorld(nullptr), RunKvStoreWorld(&fifo));
}

}  // namespace
