// Unit tests for the per-site kernel: dispatch, quantum round-robin, yield
// semantics, priority classes, tick-granular kernel preemption,
// interrupt-return behaviour, sleep/wakeup channels, cost charging, and the
// run-ahead of compute slices.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/net/network.h"
#include "src/os/kernel.h"
#include "src/sim/simulator.h"

namespace {

using mos::Channel;
using mos::Kernel;
using mos::Priority;
using mos::ProcState;
using mos::Process;
using mos::SchedulerConfig;
using msim::Duration;
using msim::Simulator;
using msim::Task;
using msim::Time;

struct KernelFixture : public ::testing::Test {
  Simulator sim;
  SchedulerConfig cfg;
  std::unique_ptr<Kernel> kernel;

  void Boot() {
    kernel = std::make_unique<Kernel>(&sim, nullptr, 0, cfg);
    kernel->Start();
  }
};

TEST_F(KernelFixture, ComputeConsumesSimulatedTime) {
  Boot();
  Time end_time = -1;
  kernel->Spawn("p", Priority::kUser, [&](Process* p) -> Task<> {
    co_await kernel->Compute(p, 5000);
    end_time = sim.Now();
  });
  sim.RunUntil(msim::kSecond);
  // 5 ms of compute plus the initial dispatch context switch.
  EXPECT_EQ(end_time, 5000 + cfg.context_switch_us);
}

TEST_F(KernelFixture, FirstDispatchChargesContextSwitch) {
  Boot();
  bool ran = false;
  kernel->Spawn("p", Priority::kUser, [&](Process* p) -> Task<> {
    co_await kernel->Compute(p, 1);
    ran = true;
  });
  sim.RunUntil(msim::kSecond);
  EXPECT_TRUE(ran);
  EXPECT_EQ(kernel->stats().context_switches, 1u);
}

TEST_F(KernelFixture, BackToBackComputesNoExtraSwitch) {
  Boot();
  kernel->Spawn("p", Priority::kUser, [&](Process* p) -> Task<> {
    for (int i = 0; i < 10; ++i) {
      co_await kernel->Compute(p, 100);
    }
  });
  sim.RunUntil(msim::kSecond);
  EXPECT_EQ(kernel->stats().context_switches, 1u);
}

TEST_F(KernelFixture, SleepForBlocksExactDuration) {
  Boot();
  Time woke = -1;
  kernel->Spawn("p", Priority::kUser, [&](Process* p) -> Task<> {
    co_await kernel->Compute(p, 100);
    Time t0 = sim.Now();
    co_await kernel->SleepFor(p, 50000);
    // Wakeup goes through the ready queue; the process re-dispatches onto an
    // idle CPU immediately but pays the context switch again if anything
    // else ran. Here nothing else ran.
    woke = sim.Now() - t0;
  });
  sim.RunUntil(msim::kSecond);
  EXPECT_EQ(woke, 50000);
}

TEST_F(KernelFixture, ChannelWakeupRoundTrip) {
  Boot();
  Channel chan;
  std::vector<int> order;
  kernel->Spawn("sleeper", Priority::kUser, [&](Process* p) -> Task<> {
    co_await kernel->SleepOn(p, chan);
    order.push_back(1);
  });
  kernel->Spawn("waker", Priority::kUser, [&](Process* p) -> Task<> {
    co_await kernel->Compute(p, 1000);
    order.push_back(0);
    kernel->Wakeup(chan);
  });
  sim.RunUntil(msim::kSecond);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST_F(KernelFixture, WakeupOneWakesOnlyFirstWaiter) {
  Boot();
  Channel chan;
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    kernel->Spawn("w" + std::to_string(i), Priority::kUser, [&](Process* p) -> Task<> {
      co_await kernel->SleepOn(p, chan);
      ++woken;
    });
  }
  kernel->Spawn("waker", Priority::kUser, [&](Process* p) -> Task<> {
    co_await kernel->Compute(p, 1000);
    kernel->WakeupOne(chan);
  });
  sim.RunUntil(msim::kSecond);
  EXPECT_EQ(woken, 1);
  EXPECT_EQ(chan.WaiterCount(), 2u);
}

TEST_F(KernelFixture, QuantumExpiryRoundRobinsEqualPriority) {
  Boot();
  // Two CPU-bound processes; each computes far longer than a quantum.
  std::vector<int> first_done;
  for (int i = 0; i < 2; ++i) {
    kernel->Spawn("cpu" + std::to_string(i), Priority::kUser, [&, i](Process* p) -> Task<> {
      // 30 slices of 20 ms = 600 ms of CPU each.
      for (int k = 0; k < 30; ++k) {
        co_await kernel->Compute(p, 20000);
      }
      first_done.push_back(i);
    });
  }
  sim.RunUntil(5 * msim::kSecond);
  ASSERT_EQ(first_done.size(), 2u);
  // With round-robin both finish within ~a quantum of each other, and both
  // record quantum expiries.
  EXPECT_GE(kernel->FindProcess(1)->quantum_expiries, 2u);
  EXPECT_GE(kernel->FindProcess(2)->quantum_expiries, 2u);
}

TEST_F(KernelFixture, NoQuantumExpiryWhenAlone) {
  Boot();
  kernel->Spawn("solo", Priority::kUser, [&](Process* p) -> Task<> {
    for (int k = 0; k < 50; ++k) {
      co_await kernel->Compute(p, 20000);  // 1 s of CPU total
    }
  });
  sim.RunUntil(5 * msim::kSecond);
  EXPECT_EQ(kernel->FindProcess(1)->quantum_expiries, 0u);
}

TEST_F(KernelFixture, YieldHandsOffImmediatelyWhenOthersReady) {
  Boot();
  std::vector<int> order;
  bool stop = false;
  kernel->Spawn("a", Priority::kUser, [&](Process* p) -> Task<> {
    while (!stop) {
      order.push_back(0);
      co_await kernel->Compute(p, 100);
      co_await kernel->Yield(p);
    }
  });
  kernel->Spawn("b", Priority::kUser, [&](Process* p) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      order.push_back(1);
      co_await kernel->Compute(p, 100);
      co_await kernel->Yield(p);
    }
    stop = true;
  });
  sim.RunUntil(msim::kSecond);
  // Strict alternation 0,1,0,1,...: yield is an immediate handoff.
  ASSERT_GE(order.size(), 6u);
  for (std::size_t i = 0; i + 1 < 6; ++i) {
    EXPECT_NE(order[i], order[i + 1]) << "at index " << i;
  }
  // No naps happened: someone was always ready.
  EXPECT_EQ(kernel->FindProcess(1)->naps + kernel->FindProcess(2)->naps, 0u);
}

TEST_F(KernelFixture, YieldAloneNapsToSecondTickBoundary) {
  Boot();
  std::vector<Time> wake_times;
  kernel->Spawn("solo", Priority::kUser, [&](Process* p) -> Task<> {
    co_await kernel->Compute(p, 1000);
    for (int i = 0; i < 3; ++i) {
      co_await kernel->Yield(p);
      wake_times.push_back(sim.Now());
    }
  });
  sim.RunUntil(msim::kSecond);
  ASSERT_EQ(wake_times.size(), 3u);
  // Each wake lands exactly on a tick boundary...
  for (Time t : wake_times) {
    EXPECT_EQ(t % cfg.tick_us, 0) << t;
  }
  // ...and chained yields sleep two full ticks (~33 ms), the paper's
  // measured yield sleep.
  EXPECT_EQ(wake_times[1] - wake_times[0], 2 * cfg.tick_us);
  EXPECT_EQ(wake_times[2] - wake_times[1], 2 * cfg.tick_us);
}

TEST_F(KernelFixture, KernelClassPreemptsUserOnlyAtTick) {
  Boot();
  Channel chan;
  Time kernel_ran_at = -1;
  kernel->Spawn("kproc", Priority::kKernel, [&](Process* p) -> Task<> {
    co_await kernel->SleepOn(p, chan);
    kernel_ran_at = sim.Now();
    co_await kernel->Compute(p, 10);
  });
  kernel->Spawn("user", Priority::kUser, [&](Process* p) -> Task<> {
    co_await kernel->Compute(p, 3000);
    // Wake the kernel process mid-tick; it must wait for the tick boundary
    // while this process keeps computing.
    kernel->Wakeup(chan);
    co_await kernel->Compute(p, 60000);
  });
  sim.RunUntil(msim::kSecond);
  ASSERT_GE(kernel_ran_at, 0);
  // Woken at ~3 ms + ctx, must run at the next tick (16.667 ms) + switch.
  EXPECT_EQ(kernel_ran_at, cfg.tick_us + cfg.kernel_switch_us);
}

TEST_F(KernelFixture, JoinWaitsForTargetExit) {
  Boot();
  Time joined_at = -1;
  Process* worker = kernel->Spawn("worker", Priority::kUser, [&](Process* p) -> Task<> {
    co_await kernel->Compute(p, 40000);
  });
  kernel->Spawn("joiner", Priority::kUser, [&](Process* p) -> Task<> {
    co_await kernel->Join(p, worker);
    joined_at = sim.Now();
  });
  sim.RunUntil(msim::kSecond);
  EXPECT_TRUE(worker->Exited());
  EXPECT_GE(joined_at, 40000);
}

TEST_F(KernelFixture, ExceptionInProcessPropagatesOutOfRun) {
  Boot();
  kernel->Spawn("bad", Priority::kUser, [&](Process* p) -> Task<> {
    co_await kernel->Compute(p, 100);
    throw std::runtime_error("app crash");
  });
  EXPECT_THROW(sim.RunUntil(msim::kSecond), std::runtime_error);
}

TEST_F(KernelFixture, RemapChargedPerSharedPageAtScheduleIn) {
  Boot();
  int sync_calls = 0;
  kernel->Spawn("other", Priority::kUser, [&](Process* p) -> Task<> {
    for (int i = 0; i < 5; ++i) {
      co_await kernel->Compute(p, 1000);
      co_await kernel->Yield(p);
    }
  });
  kernel->Spawn("shared", Priority::kUser, [&](Process* p) -> Task<> {
    p->shared_page_count = 10;
    p->on_schedule_in = [&sync_calls] { ++sync_calls; };
    for (int i = 0; i < 5; ++i) {
      co_await kernel->Compute(p, 1000);
      co_await kernel->Yield(p);
    }
  });
  sim.RunUntil(msim::kSecond);
  EXPECT_GT(sync_calls, 3);
  EXPECT_GE(kernel->stats().remap_time, 4 * 10 * cfg.remap_per_page_us);
}

// ---- serial run-ahead (DESIGN.md §10.7) ----
// A process computing alone has its slices finished inside the slice event
// rather than through the event queue; these pin the edges of that path.
// Each process's first slice also pays the dispatch context switch.

TEST_F(KernelFixture, TimerDueAtSliceEndFiresBeforeTheSliceCompletes) {
  Boot();
  int slices = 0;
  int slices_seen_by_timer = -1;
  const Time first_end = cfg.context_switch_us + 100;
  sim.ScheduleAt(first_end + 400, [&] { slices_seen_by_timer = slices; });
  kernel->Spawn("p", Priority::kUser, [&](Process* p) -> Task<> {
    for (int i = 0; i < 10; ++i) {
      co_await kernel->Compute(p, 100);
      ++slices;
    }
  });
  sim.RunUntil(msim::kSecond);
  EXPECT_EQ(slices, 10);
  // The fifth slice ends at the timer's instant. The timer was scheduled
  // first, so it wins the tie.
  EXPECT_EQ(slices_seen_by_timer, 4);
  EXPECT_GT(sim.RunAheadEvents(), 0u);
}

TEST_F(KernelFixture, RunUntilStopsBeforeASliceEndingPastTheDeadline) {
  Boot();
  std::vector<Time> ends;
  kernel->Spawn("p", Priority::kUser, [&](Process* p) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      co_await kernel->Compute(p, 1000);
      ends.push_back(sim.Now());
    }
  });
  const Time first_end = cfg.context_switch_us + 1000;
  sim.RunUntil(first_end + 1500);
  EXPECT_EQ(ends, (std::vector<Time>{first_end, first_end + 1000}));
  EXPECT_EQ(sim.Now(), first_end + 1500);
  sim.RunUntil(first_end + 2000);  // the slice ends at its original time
  EXPECT_EQ(ends, (std::vector<Time>{first_end, first_end + 1000, first_end + 2000}));
}

TEST_F(KernelFixture, RunFiresExactlyMaxEventsWhileRunningAhead) {
  Boot();
  int slices = 0;
  kernel->Spawn("p", Priority::kUser, [&](Process* p) -> Task<> {
    for (;;) {
      co_await kernel->Compute(p, 100);
      ++slices;
    }
  });
  // The resched that dispatches p, its context-switch slice, then one event
  // per 100 µs slice.
  EXPECT_EQ(sim.Run(50), 50u);
  EXPECT_EQ(sim.ProcessedEvents(), 50u);
  EXPECT_EQ(slices, 48);
  EXPECT_EQ(sim.Now(), cfg.context_switch_us + 48 * 100);
  EXPECT_EQ(sim.Run(10), 10u);
  EXPECT_EQ(slices, 58);
}

TEST_F(KernelFixture, StopFromAProcessHaltsBeforeItsNextSlice) {
  Boot();
  int slices = 0;
  kernel->Spawn("p", Priority::kUser, [&](Process* p) -> Task<> {
    for (int i = 0; i < 10; ++i) {
      co_await kernel->Compute(p, 100);
      if (++slices == 3) {
        sim.Stop();
      }
    }
  });
  sim.Run();
  EXPECT_EQ(slices, 3);
  EXPECT_EQ(sim.Now(), cfg.context_switch_us + 300);
  sim.RunUntil(msim::kSecond);
  EXPECT_EQ(slices, 10);
}

TEST_F(KernelFixture, ExceptionDuringRunAheadLeavesTheSimulatorUsable) {
  Boot();
  kernel->Spawn("bad", Priority::kUser, [&](Process* p) -> Task<> {
    for (int i = 0; i < 5; ++i) {
      co_await kernel->Compute(p, 100);
    }
    throw std::runtime_error("app crash");
  });
  EXPECT_THROW(sim.RunUntil(msim::kSecond), std::runtime_error);
  EXPECT_EQ(sim.Now(), cfg.context_switch_us + 500);
  EXPECT_GT(sim.RunAheadEvents(), 0u);
  bool fired = false;
  sim.Schedule(10, [&] { fired = true; });
  sim.RunUntil(msim::kSecond);
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.Now(), msim::kSecond);
}

// ---- network-facing behaviour (two kernels) ----

struct TwoSiteFixture : public ::testing::Test {
  Simulator sim;
  mnet::CostModel costs;
  std::unique_ptr<mnet::Network> net;
  std::unique_ptr<Kernel> k0;
  std::unique_ptr<Kernel> k1;

  void Boot() {
    net = std::make_unique<mnet::Network>(&sim, &costs);
    k0 = std::make_unique<Kernel>(&sim, net.get(), 0);
    k1 = std::make_unique<Kernel>(&sim, net.get(), 1);
  }
};

TEST_F(TwoSiteFixture, PacketsDeliveredInOrderWithCalibratedLatency) {
  Boot();
  std::vector<std::uint32_t> received;
  std::vector<Time> times;
  k1->SetPacketHandler([&](Process*, mnet::Packet pkt) -> Task<> {
    received.push_back(pkt.type);
    times.push_back(sim.Now());
    co_return;
  });
  k0->Start();
  k1->Start();
  k0->Spawn("sender", Priority::kUser, [&](Process* p) -> Task<> {
    for (std::uint32_t i = 1; i <= 3; ++i) {
      mnet::Packet pkt;
      pkt.src = 0;
      pkt.dst = 1;
      pkt.type = i;
      pkt.size_bytes = 64;
      co_await k0->Send(p, pkt);
    }
  });
  sim.RunUntil(msim::kSecond);
  EXPECT_EQ(received, (std::vector<std::uint32_t>{1, 2, 3}));
  // First handler invocation: sender ctx + tx, then rx + handle + kernel
  // switch at the receiver.
  SchedulerConfig cfg;
  Time expected = cfg.context_switch_us + costs.tx_short_us + costs.rx_short_us +
                  costs.input_handle_cpu_us + cfg.kernel_switch_us;
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], expected);
}

TEST_F(TwoSiteFixture, LargePacketsUseLargeCosts) {
  Boot();
  Time received_at = -1;
  k1->SetPacketHandler([&](Process*, mnet::Packet) -> Task<> {
    received_at = sim.Now();
    co_return;
  });
  k0->Start();
  k1->Start();
  k0->Spawn("sender", Priority::kUser, [&](Process* p) -> Task<> {
    mnet::Packet pkt;
    pkt.src = 0;
    pkt.dst = 1;
    pkt.type = 9;
    pkt.size_bytes = 576;
    co_await k0->Send(p, pkt);
  });
  sim.RunUntil(msim::kSecond);
  SchedulerConfig cfg;
  EXPECT_EQ(received_at, cfg.context_switch_us + costs.tx_large_us + costs.rx_large_us +
                             costs.input_handle_cpu_us + cfg.kernel_switch_us);
}

}  // namespace
