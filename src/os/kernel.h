// A simulated Locus site: one CPU, a priority round-robin scheduler with a
// time quantum, clock ticks, a network interface with interrupt-level
// receive, and the syscalls the paper's applications need (notably yield()).
//
// Scheduling rules (DESIGN.md §5.1):
//  * one CPU; interrupt-class work preempts anything as soon as it arrives;
//  * kernel-class processes (network server, library) preempt user-class
//    processes only at clock-tick boundaries — so a busy-waiting user delays
//    colocated library service by up to a tick, which is exactly the effect
//    yield() was added to avoid (§7.2);
//  * same-class processes round-robin on quantum expiry (6 ticks);
//  * every schedule-in of a process after other activity ran charges a
//    context switch plus the lazy remap of all its attached shared pages.
#ifndef SRC_OS_KERNEL_H_
#define SRC_OS_KERNEL_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/net/cost_model.h"
#include "src/net/network.h"
#include "src/net/packet.h"
#include "src/os/config.h"
#include "src/os/process.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace mos {

struct KernelStats {
  msim::Duration idle_time = 0;
  msim::Duration busy_time = 0;
  msim::Duration remap_time = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t packets_received = 0;
  // Packets that arrived after this site halted (crash fault injection).
  std::uint64_t packets_dropped_down = 0;
  std::uint64_t ticks = 0;

  bool operator==(const KernelStats&) const = default;
};

class Kernel {
 public:
  // Handles a received packet in interrupt context. The Process* is the
  // interrupt service process; use it for Compute/Send within the handler.
  using PacketHandler = std::function<msim::Task<>(Process*, mnet::Packet)>;
  using ProcessBody = std::function<msim::Task<>(Process*)>;

  Kernel(msim::Simulator* sim, mnet::Network* net, mnet::SiteId site,
         SchedulerConfig cfg = SchedulerConfig{});
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // Registers with the network, spawns the interrupt service process, and
  // starts the clock. Call after SetPacketHandler.
  void Start();

  void SetPacketHandler(PacketHandler h) { packet_handler_ = std::move(h); }

  // Creates a process; it becomes runnable immediately.
  Process* Spawn(std::string name, Priority prio, ProcessBody body);

  // ---- Awaitables (co_await from the owning process's coroutine only) ----

  // Consumes `amount` of CPU, subject to preemption and quantum.
  struct ComputeAwaiter {
    Kernel* k;
    Process* p;
    msim::Duration amount;
    bool await_ready() const noexcept { return amount <= 0; }
    void await_suspend(std::coroutine_handle<> h) {
      p->resume_point = h;
      p->pending = PendingOp::kCompute;
      p->cpu_needed = amount;
    }
    void await_resume() const noexcept {}
  };
  ComputeAwaiter Compute(Process* p, msim::Duration amount) { return {this, p, amount}; }

  // Blocks until Wakeup on the channel.
  struct BlockAwaiter {
    Kernel* k;
    Process* p;
    Channel* ch;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      p->resume_point = h;
      p->pending = PendingOp::kBlock;
      ++p->block_gen;
      ch->waiters_.push_back(p);
    }
    void await_resume() const noexcept {}
  };
  BlockAwaiter SleepOn(Process* p, Channel& ch) { return {this, p, &ch}; }

  // Blocks until Wakeup on the channel OR `timeout` elapses, whichever comes
  // first (timeout <= 0 degenerates to SleepOn). The caller distinguishes the
  // two by re-checking its wakeup predicate / the clock — exactly the classic
  // UNIX sleep-with-timeout contract. This is the primitive under every
  // protocol-level recovery timeout (DESIGN.md "Failure model").
  struct TimedSleepOnAwaiter {
    Kernel* k;
    Process* p;
    Channel* ch;
    msim::Duration timeout;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };
  TimedSleepOnAwaiter SleepOnFor(Process* p, Channel& ch, msim::Duration timeout) {
    return {this, p, &ch, timeout};
  }

  // Blocks for a fixed duration of simulated time.
  struct TimedBlockAwaiter {
    Kernel* k;
    Process* p;
    msim::Duration delay;
    bool await_ready() const noexcept { return delay <= 0; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };
  TimedBlockAwaiter SleepFor(Process* p, msim::Duration d) { return {this, p, d}; }

  // The paper's yield() syscall: hand the CPU over if anyone is runnable,
  // otherwise nap to the yield_idle_ticks'th tick boundary (~33 ms chained).
  struct YieldAwaiter {
    Kernel* k;
    Process* p;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      p->resume_point = h;
      p->pending = PendingOp::kYield;
    }
    void await_resume() const noexcept {}
  };
  YieldAwaiter Yield(Process* p) { return {this, p}; }

  // Charges the transmit cost, then hands the packet to the network.
  msim::Task<> Send(Process* p, mnet::Packet pkt);

  // Waits until `target` exits.
  msim::Task<> Join(Process* p, Process* target);

  // ---- Kernel services callable from any event context ----

  void Wakeup(Channel& ch);     // wake all waiters
  void WakeupOne(Channel& ch);  // wake the longest waiter

  // Crash fault: stops this site. The running slice is cancelled, nothing
  // is dispatched again, the tick chain ends, and every subsequently
  // arriving packet is dropped (counted) — until Revive reboots the site.
  void Halt();

  // Reboot-with-amnesia after a Halt: every pre-crash process becomes a
  // zombie that will never run again (its frozen coroutine frame stays
  // alive so stale Process* in channels and timers remain valid), the NIC
  // queue and ready queues are cleared, a fresh network server is spawned,
  // and the clock restarts at the next tick boundary. The network
  // registration is kept — the site's sink was merely gated while halted.
  // Callers are expected to respawn their own serving processes afterwards
  // (the DSM engine does this in its rejoin handshake).
  void Revive();
  bool halted() const { return halted_; }

  mnet::SiteId site() const { return site_; }
  msim::Simulator* sim() const { return sim_; }
  mnet::Network* net() const { return net_; }
  const mnet::CostModel& costs() const { return net_->costs(); }
  const SchedulerConfig& config() const { return cfg_; }
  msim::Time Now() const { return sim_->Now(); }
  const KernelStats& stats() const { return stats_; }
  Process* running() const { return running_; }
  Process* FindProcess(int pid) const;

 private:
  friend struct TimedBlockAwaiter;
  friend struct TimedSleepOnAwaiter;

  void OnPacket(mnet::Packet pkt);
  msim::Task<> IsrMain(Process* self);

  void MakeReady(Process* p);
  void RequestResched();
  void Resched();
  void Dispatch();
  void BeginSlice();
  void OnComputeDone();
  // Adds `consumed` of CPU to `p`'s time and quantum and the site's busy time.
  void ChargeCpu(Process* p, msim::Duration consumed);
  void Preempt(bool to_tail);
  // Runs `p` until it finishes or suspends on a kernel awaitable, then acts
  // on how it stopped: exit, start a slice, block, or yield. Only
  // OnComputeDone passes `in_slice_event`, which allows run-ahead.
  void ResumeCoroutine(Process* p, bool in_slice_event);
  void HandleYield(Process* p);
  void HandleExit(Process* p);
  void ReleaseCpu();
  // `gen` identifies the boot this tick chain belongs to: a chain from
  // before a Halt/Revive cycle dies instead of duplicating the new one.
  void OnTick(std::uint64_t gen);

  bool AnyReady() const;
  bool ReadyAtOrBetter(Priority prio) const;
  Process* PopBestReady();

  // Every event this kernel schedules models work on this site's one CPU, so
  // they all share the site's event domain: a schedule controller (mcheck)
  // may interleave different sites but never reorders one site against
  // itself.
  msim::EventDomain Domain() const { return static_cast<msim::EventDomain>(site_); }

  msim::Simulator* sim_;
  mnet::Network* net_;
  mnet::SiteId site_;
  SchedulerConfig cfg_;

  std::vector<std::unique_ptr<Process>> procs_;
  int next_pid_ = 1;

  std::array<std::deque<Process*>, kNumPriorities> ready_;
  Process* running_ = nullptr;
  Process* last_on_cpu_ = nullptr;
  // Interrupt-return semantics: the process preempted by interrupt service
  // resumes afterwards; priority re-evaluation happens only at clock ticks
  // and voluntary CPU releases, as in classic UNIX.
  Process* interrupt_resume_ = nullptr;
  msim::EventId slice_event_ = 0;
  msim::Time slice_start_ = 0;
  bool resched_pending_ = false;
  msim::Time idle_since_ = 0;

  std::deque<mnet::Packet> nic_queue_;
  Channel nic_chan_;
  PacketHandler packet_handler_;
  Process* isr_ = nullptr;

  KernelStats stats_;
  bool started_ = false;
  bool halted_ = false;
  std::uint64_t tick_gen_ = 0;  // bumped by Revive to retire the old chain
};

}  // namespace mos

#endif  // SRC_OS_KERNEL_H_
