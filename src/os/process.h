// Simulated processes and kernel sleep/wakeup channels.
//
// A Process wraps a coroutine that runs under a site Kernel's scheduler.
// Every CPU use and every blocking operation goes through a Kernel awaitable
// so the scheduler fully controls interleaving — user code between awaits is
// zero simulated time.
#ifndef SRC_OS_PROCESS_H_
#define SRC_OS_PROCESS_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "src/sim/task.h"
#include "src/sim/time.h"

namespace mos {

class Kernel;

// Scheduling classes, best first. Interrupt work preempts immediately;
// kernel lightweight processes (network server, library) preempt user
// processes only at clock ticks — this granularity is what makes a busy-
// waiting user process hurt colocated library service (§7.2 of the paper).
enum class Priority : int {
  kInterrupt = 0,
  kKernel = 1,
  kUser = 2,
};
inline constexpr int kNumPriorities = 3;

enum class ProcState {
  kEmbryo,   // created, never run
  kReady,    // on a run queue
  kRunning,  // owns the CPU
  kBlocked,  // waiting on a Channel or timer
  kExited,
};

// What a process asked the kernel for when it last suspended.
enum class PendingOp {
  kNone,
  kCompute,  // consume cpu_needed of CPU
  kBlock,    // already parked on a Channel (or timer)
  kYield,    // give up the CPU voluntarily
};

// Per-process record. Fields are managed by the owning Kernel; user code
// holds Process* only as an identity/context token.
struct Process;

// A UNIX-style sleep channel: processes block on it, Wakeup makes them ready.
// Wakeups go through the scheduler, so a woken process waits its turn for
// the CPU.
class Channel {
 public:
  Channel() = default;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  std::size_t WaiterCount() const { return waiters_.size(); }

 private:
  friend class Kernel;
  std::deque<Process*> waiters_;
};

// Per-process record. Fields are managed by the owning Kernel; user code
// holds Process* only as an identity/context token.
struct Process {
  Kernel* kernel = nullptr;
  int pid = -1;
  std::string name;
  Priority prio = Priority::kUser;
  ProcState state = ProcState::kEmbryo;

  // The body factory is stored on the process because a lambda coroutine's
  // captures live in the closure object, not in the coroutine frame; the
  // closure must outlive the coroutine.
  std::function<msim::Task<>(Process*)> body_factory;
  msim::Task<> body;
  std::coroutine_handle<> resume_point;
  PendingOp pending = PendingOp::kNone;
  bool started = false;
  bool finished = false;
  // Incremented on every block; lets timers detect stale wakeups.
  std::uint64_t block_gen = 0;
  // Processes Join()ing this one sleep here.
  Channel exit_chan;

  // Remaining CPU demand for the current Compute (plus dispatch overheads).
  msim::Duration cpu_needed = 0;
  // Remaining round-robin quantum.
  msim::Duration quantum_left = 0;
  // Take a fresh quantum at next dispatch (set on voluntary CPU release).
  bool fresh_quantum = true;

  // Lazy-remap bookkeeping: number of shared pages attached (maintained by
  // the memory layer) and the hook that syncs process PTEs from the master.
  int shared_page_count = 0;
  std::function<void()> on_schedule_in;

  // Statistics.
  msim::Duration cpu_time = 0;
  msim::Duration nap_time = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t yields = 0;
  std::uint64_t naps = 0;
  std::uint64_t quantum_expiries = 0;

  bool Exited() const { return state == ProcState::kExited; }
};

}  // namespace mos

#endif  // SRC_OS_PROCESS_H_
