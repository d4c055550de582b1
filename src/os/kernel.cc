#include "src/os/kernel.h"

#include <stdexcept>
#include <utility>

namespace mos {

Kernel::Kernel(msim::Simulator* sim, mnet::Network* net, mnet::SiteId site, SchedulerConfig cfg)
    : sim_(sim), net_(net), site_(site), cfg_(cfg) {}

Kernel::~Kernel() = default;

void Kernel::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  if (net_ != nullptr) {
    net_->RegisterSite(site_, [this](mnet::Packet pkt) { OnPacket(std::move(pkt)); });
    // The network server is a kernel lightweight process (as in Locus), not
    // a pure interrupt handler: a busy-waiting user process can delay it
    // until the next clock tick — the §7.2 motivation for yield().
    isr_ = Spawn("netserver", Priority::kKernel,
                 [this](Process* self) { return IsrMain(self); });
  }
  msim::Time first_tick = (sim_->Now() / cfg_.tick_us + 1) * cfg_.tick_us;
  std::uint64_t gen = tick_gen_;
  sim_->ScheduleAt(first_tick, Domain(), [this, gen] { OnTick(gen); });
}

Process* Kernel::Spawn(std::string name, Priority prio, ProcessBody body) {
  auto proc = std::make_unique<Process>();
  Process* p = proc.get();
  p->kernel = this;
  p->pid = next_pid_++;
  p->name = std::move(name);
  p->prio = prio;
  p->body_factory = std::move(body);
  p->body = p->body_factory(p);
  procs_.push_back(std::move(proc));
  MakeReady(p);
  return p;
}

Process* Kernel::FindProcess(int pid) const {
  for (const auto& p : procs_) {
    if (p->pid == pid) {
      return p.get();
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------- network --

void Kernel::OnPacket(mnet::Packet pkt) {
  if (halted_) {
    // The NIC of a crashed site receives nothing. (Network-level fault hooks
    // normally drop these earlier; this covers packets already past them.)
    ++stats_.packets_dropped_down;
    return;
  }
  ++stats_.packets_received;
  nic_queue_.push_back(std::move(pkt));
  Wakeup(nic_chan_);
}

msim::Task<> Kernel::IsrMain(Process* self) {
  for (;;) {
    while (nic_queue_.empty()) {
      co_await SleepOn(self, nic_chan_);
    }
    mnet::Packet pkt = std::move(nic_queue_.front());
    nic_queue_.pop_front();
    // Receive elapsed time plus the per-input handling CPU ("9 ms for the 6
    // input interrupts to install, invalidate, or upgrade the page").
    co_await Compute(self, costs().RxCost(pkt.size_bytes));
    co_await Compute(self, costs().input_handle_cpu_us);
    if (packet_handler_) {
      co_await packet_handler_(self, std::move(pkt));
    }
  }
}

msim::Task<> Kernel::Send(Process* p, mnet::Packet pkt) {
  // Network delivery is the only cross-partition edge of the parallel
  // simulation core (DESIGN.md §12). Fence the in-flight transmit at its
  // earliest possible delivery instant so no conservative window advances
  // past it while the transmit cost is still being paid; the fence is a
  // no-op in serial mode. The delivery itself then always executes as a
  // coordinator serial step with full cross-partition visibility.
  const msim::Time send_lb = sim_->Now() + costs().TxCost(pkt.size_bytes);
  sim_->BeginSendFence(Domain(), send_lb);
  co_await Compute(p, costs().TxCost(pkt.size_bytes));
  net_->Deliver(std::move(pkt));
  sim_->EndSendFence(Domain(), send_lb);
}

msim::Task<> Kernel::Join(Process* p, Process* target) {
  while (!target->Exited()) {
    co_await SleepOn(p, target->exit_chan);
  }
}

// -------------------------------------------------------------- scheduler --

void Kernel::Wakeup(Channel& ch) {
  while (!ch.waiters_.empty()) {
    Process* p = ch.waiters_.front();
    ch.waiters_.pop_front();
    MakeReady(p);
  }
}

void Kernel::WakeupOne(Channel& ch) {
  if (!ch.waiters_.empty()) {
    Process* p = ch.waiters_.front();
    ch.waiters_.pop_front();
    MakeReady(p);
  }
}

void Kernel::MakeReady(Process* p) {
  if (p->state == ProcState::kExited) {
    // Zombies — exited processes, including every process from a boot that
    // ended in Halt+Revive — must never run again, even if a stale channel
    // wakeup or timer still points at them.
    return;
  }
  p->state = ProcState::kReady;
  ready_[static_cast<int>(p->prio)].push_back(p);
  RequestResched();
}

void Kernel::RequestResched() {
  if (resched_pending_) {
    return;
  }
  resched_pending_ = true;
  sim_->Schedule(0, Domain(), [this] {
    resched_pending_ = false;
    Resched();
  });
}

void Kernel::Halt() {
  if (halted_) {
    return;
  }
  halted_ = true;
  if (slice_event_ != 0) {
    sim_->Cancel(slice_event_);
    slice_event_ = 0;
  }
  if (running_ != nullptr) {
    running_->state = ProcState::kBlocked;  // frozen mid-computation, forever
    // A running process sleeps nowhere, so every timer armed by its earlier
    // sleeps is stale. Retire them: the frozen state would otherwise pass
    // their guard, and the channel such a timer names may already be gone
    // with the coroutine frame that owned it.
    ++running_->block_gen;
    running_ = nullptr;
  }
  nic_queue_.clear();
  // Ready queues and blocked processes are left as-is: their coroutine
  // frames stay alive (destroying them mid-await is unnecessary — the
  // simulator simply never runs them again because Dispatch is gated).
  // Revive zombifies them for good before rebooting.
}

void Kernel::Revive() {
  if (!halted_) {
    return;
  }
  halted_ = false;
  // Reboot with amnesia: every pre-crash process is a zombie now. Process
  // objects are never destroyed while the kernel lives, so Process*
  // lingering in channel waiter queues or pending timers stay valid —
  // MakeReady's kExited guard keeps them off the CPU forever.
  for (auto& proc : procs_) {
    proc->state = ProcState::kExited;
  }
  for (auto& q : ready_) {
    q.clear();
  }
  nic_queue_.clear();
  running_ = nullptr;
  last_on_cpu_ = nullptr;
  interrupt_resume_ = nullptr;
  if (idle_since_ < 0) {
    idle_since_ = sim_->Now();  // downtime accounts as idle from here on
  }
  // Keep the network registration (OnPacket was gated by halted_); only the
  // serving processes reboot.
  if (net_ != nullptr) {
    isr_ = Spawn("netserver", Priority::kKernel,
                 [this](Process* self) { return IsrMain(self); });
  }
  // Restart the clock on a fresh generation so a not-yet-fired tick from
  // the previous boot cannot revive the old chain next to the new one.
  ++tick_gen_;
  std::uint64_t gen = tick_gen_;
  msim::Time first_tick = (sim_->Now() / cfg_.tick_us + 1) * cfg_.tick_us;
  sim_->ScheduleAt(first_tick, Domain(), [this, gen] { OnTick(gen); });
}

void Kernel::Resched() {
  if (halted_) {
    return;
  }
  // Interrupt-class work preempts immediately; everything else waits for a
  // tick or a voluntary CPU release. The interrupted process resumes when
  // interrupt service completes (interrupt-return semantics).
  if (running_ != nullptr && running_->prio != Priority::kInterrupt &&
      !ready_[static_cast<int>(Priority::kInterrupt)].empty()) {
    interrupt_resume_ = running_;
    Preempt(/*to_tail=*/false);
  }
  if (running_ == nullptr) {
    Dispatch();
  }
}

bool Kernel::AnyReady() const {
  for (const auto& q : ready_) {
    if (!q.empty()) {
      return true;
    }
  }
  return false;
}

bool Kernel::ReadyAtOrBetter(Priority prio) const {
  for (int c = 0; c <= static_cast<int>(prio); ++c) {
    if (!ready_[c].empty()) {
      return true;
    }
  }
  return false;
}

Process* Kernel::PopBestReady() {
  for (auto& q : ready_) {
    if (!q.empty()) {
      Process* p = q.front();
      q.pop_front();
      return p;
    }
  }
  return nullptr;
}

void Kernel::Dispatch() {
  if (halted_) {
    return;
  }
  Process* p = nullptr;
  // Return from interrupt: resume the interrupted process unless more
  // interrupt-class work is pending. Priority re-evaluation waits for the
  // next tick or a voluntary release.
  if (interrupt_resume_ != nullptr) {
    if (interrupt_resume_->state == ProcState::kReady &&
        ready_[static_cast<int>(Priority::kInterrupt)].empty()) {
      auto& q = ready_[static_cast<int>(interrupt_resume_->prio)];
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (*it == interrupt_resume_) {
          p = interrupt_resume_;
          q.erase(it);
          break;
        }
      }
    }
    if (p != nullptr || ready_[static_cast<int>(Priority::kInterrupt)].empty()) {
      interrupt_resume_ = nullptr;
    }
  }
  if (p == nullptr) {
    p = PopBestReady();
  }
  if (p == nullptr) {
    if (idle_since_ < 0) {
      idle_since_ = sim_->Now();
    }
    return;
  }
  if (idle_since_ >= 0) {
    stats_.idle_time += sim_->Now() - idle_since_;
    idle_since_ = -1;
  }
  running_ = p;
  p->state = ProcState::kRunning;
  ++p->dispatches;
  ++stats_.dispatches;
  if (p->fresh_quantum) {
    p->quantum_left = cfg_.QuantumUs();
    p->fresh_quantum = false;
  }
  msim::Duration overhead = 0;
  // Interrupt entry costs nothing here: the receive path's elapsed cost
  // already covers the paper's interrupt handling.
  if (last_on_cpu_ != p && p->prio != Priority::kInterrupt) {
    msim::Duration remap =
        static_cast<msim::Duration>(p->shared_page_count) * cfg_.remap_per_page_us;
    msim::Duration base_switch =
        p->prio == Priority::kKernel ? cfg_.kernel_switch_us : cfg_.context_switch_us;
    overhead = base_switch + remap;
    stats_.remap_time += remap;
    ++stats_.context_switches;
  }
  last_on_cpu_ = p;
  if (p->on_schedule_in) {
    // Lazy remap: sync this process's PTEs from the site master image.
    p->on_schedule_in();
  }
  p->cpu_needed += overhead;
  if (p->cpu_needed > 0) {
    BeginSlice();
  } else {
    ResumeCoroutine(p, /*in_slice_event=*/false);
  }
}

void Kernel::BeginSlice() {
  slice_start_ = sim_->Now();
  slice_event_ = sim_->Schedule(running_->cpu_needed, Domain(), [this] { OnComputeDone(); });
}

void Kernel::OnComputeDone() {
  slice_event_ = 0;
  Process* p = running_;
  ChargeCpu(p, sim_->Now() - slice_start_);
  p->cpu_needed = 0;
  ResumeCoroutine(p, /*in_slice_event=*/true);
}

void Kernel::ChargeCpu(Process* p, msim::Duration consumed) {
  p->cpu_time += consumed;
  p->quantum_left -= consumed;
  stats_.busy_time += consumed;
}

void Kernel::Preempt(bool to_tail) {
  Process* p = running_;
  if (slice_event_ != 0) {
    sim_->Cancel(slice_event_);
    slice_event_ = 0;
  }
  msim::Duration consumed = sim_->Now() - slice_start_;
  ChargeCpu(p, consumed);
  p->cpu_needed -= consumed;
  if (p->cpu_needed < 0) {
    p->cpu_needed = 0;
  }
  p->state = ProcState::kReady;
  auto& q = ready_[static_cast<int>(p->prio)];
  if (to_tail) {
    p->fresh_quantum = true;
    q.push_back(p);
  } else {
    q.push_front(p);
  }
  running_ = nullptr;
}

void Kernel::ResumeCoroutine(Process* p, bool in_slice_event) {
  for (;;) {
    p->pending = PendingOp::kNone;
    if (!p->started) {
      p->started = true;
      p->body.Start([p] { p->finished = true; });
    } else {
      p->resume_point.resume();
    }
    if (p->finished) {
      HandleExit(p);
      return;
    }
    switch (p->pending) {
      case PendingOp::kCompute:
        // Run-ahead (DESIGN.md §10.7): in the slice event nothing else runs
        // between `p` suspending here and the simulator's next event. If
        // the slice `p` asks for would be that event, finish it now and
        // resume `p` again instead of going through the event queue.
        if (in_slice_event && sim_->TryRunAhead(p->cpu_needed)) {
          ChargeCpu(p, p->cpu_needed);
          p->cpu_needed = 0;
          continue;
        }
        BeginSlice();
        break;
      case PendingOp::kBlock:
        p->state = ProcState::kBlocked;
        ReleaseCpu();
        break;
      case PendingOp::kYield:
        HandleYield(p);
        break;
      case PendingOp::kNone:
        throw std::logic_error("os: process '" + p->name +
                               "' suspended outside a kernel awaitable");
    }
    return;
  }
}

void Kernel::HandleYield(Process* p) {
  ++p->yields;
  if (AnyReady()) {
    // Immediate handoff: requeue at the tail with a fresh quantum.
    p->state = ProcState::kReady;
    p->fresh_quantum = true;
    ready_[static_cast<int>(p->prio)].push_back(p);
    running_ = nullptr;
    Dispatch();
    return;
  }
  // Nothing else to run: nap to the yield_idle_ticks'th tick boundary, so
  // chained yields sleep ~2 ticks (the paper's measured 33 ms sleeps).
  ++p->naps;
  p->state = ProcState::kBlocked;
  ++p->block_gen;
  msim::Time wake = (sim_->Now() / cfg_.tick_us + 1) * cfg_.tick_us +
                    static_cast<msim::Duration>(cfg_.yield_idle_ticks - 1) * cfg_.tick_us;
  p->nap_time += wake - sim_->Now();
  std::uint64_t gen = p->block_gen;
  sim_->ScheduleAt(wake, Domain(), [this, p, gen] {
    if (p->state == ProcState::kBlocked && p->block_gen == gen) {
      MakeReady(p);
    }
  });
  running_ = nullptr;
  Dispatch();
}

void Kernel::HandleExit(Process* p) {
  p->state = ProcState::kExited;
  running_ = nullptr;
  Wakeup(p->exit_chan);
  p->body.CheckResult();  // propagate stored exceptions to the driver
  Dispatch();
}

void Kernel::ReleaseCpu() {
  running_ = nullptr;
  Dispatch();
}

void Kernel::OnTick(std::uint64_t gen) {
  if (halted_ || gen != tick_gen_) {
    return;  // the clock of a crashed site stops: no further ticks
  }
  ++stats_.ticks;
  sim_->Schedule(cfg_.tick_us, Domain(), [this, gen] { OnTick(gen); });
  interrupt_resume_ = nullptr;  // the tick is a full rescheduling point
  if (running_ != nullptr) {
    Process* p = running_;
    msim::Duration used_in_slice = sim_->Now() - slice_start_;
    bool kernel_work_waiting = !ready_[static_cast<int>(Priority::kInterrupt)].empty() ||
                               !ready_[static_cast<int>(Priority::kKernel)].empty();
    if (p->prio == Priority::kUser && kernel_work_waiting) {
      Preempt(/*to_tail=*/false);
    } else if (p->prio != Priority::kInterrupt && p->quantum_left - used_in_slice <= 0) {
      if (ReadyAtOrBetter(p->prio)) {
        ++p->quantum_expiries;
        Preempt(/*to_tail=*/true);
      } else {
        p->quantum_left += cfg_.QuantumUs();
      }
    }
  }
  if (running_ == nullptr) {
    Dispatch();
  }
}

void Kernel::TimedSleepOnAwaiter::await_suspend(std::coroutine_handle<> h) {
  p->resume_point = h;
  p->pending = PendingOp::kBlock;
  ++p->block_gen;
  ch->waiters_.push_back(p);
  if (timeout <= 0) {
    return;  // no deadline: behaves exactly like SleepOn
  }
  std::uint64_t gen = p->block_gen;
  Kernel* kern = k;
  Process* proc = p;
  Channel* chan = ch;
  kern->sim_->Schedule(timeout, kern->Domain(), [kern, proc, chan, gen] {
    // The block_gen guard proves the process is still in THIS sleep: any
    // wakeup-and-reblock bumps the generation, making a stale timer a no-op
    // (and guaranteeing `chan` is still the channel it waits on).
    if (proc->state != ProcState::kBlocked || proc->block_gen != gen) {
      return;
    }
    for (auto it = chan->waiters_.begin(); it != chan->waiters_.end(); ++it) {
      if (*it == proc) {
        chan->waiters_.erase(it);
        break;
      }
    }
    kern->MakeReady(proc);
  });
}

void Kernel::TimedBlockAwaiter::await_suspend(std::coroutine_handle<> h) {
  p->resume_point = h;
  p->pending = PendingOp::kBlock;
  ++p->block_gen;
  std::uint64_t gen = p->block_gen;
  Kernel* kern = k;
  Process* proc = p;
  kern->sim_->Schedule(delay, kern->Domain(), [kern, proc, gen] {
    if (proc->state == ProcState::kBlocked && proc->block_gen == gen) {
      kern->MakeReady(proc);
    }
  });
}

}  // namespace mos
