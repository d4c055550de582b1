#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <stdexcept>

namespace msim {

namespace {

constexpr Time kMaxTime = std::numeric_limits<Time>::max();

using HostClock = std::chrono::steady_clock;

double SecondsSince(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

// The window barrier's spin (DESIGN.md §12.2): a waiter polls with a CPU
// pause kPauseSpins times, then yields until kSpinFor has passed, then
// parks. A window and the serial steps between two windows last tens to
// hundreds of microseconds, so most waits end while spinning and neither
// side pays a futex sleep and wake — on a virtual machine, a parked
// thread's idle vCPU can take longer to wake than the window lasted.
constexpr int kPauseSpins = 64;
constexpr std::chrono::microseconds kSpinFor{1000};

// Threads that execute windows, summed over every simulator with a live
// pool; each pool's coordinator counts, since it runs partition 1.
std::atomic<int> g_window_threads{0};

// Spinning only pays while every window thread has a core to itself. With
// more (say, several experiment-runner threads each driving a parallel
// world) a spinner burns the core the thread it waits for needs, so
// waiters park at once.
bool SpinAllowed() {
  static const int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return g_window_threads.load(std::memory_order_relaxed) <= cores;
}

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Waits until `word` no longer holds `seen`: spins while SpinAllowed(), then
// parks.
void AwaitChange(const std::atomic<std::uint32_t>& word, std::uint32_t seen) {
  if (SpinAllowed()) {
    for (int i = 0; i < kPauseSpins; ++i) {
      if (word.load(std::memory_order_acquire) != seen) {
        return;
      }
      CpuRelax();
    }
    const HostClock::time_point give_up = HostClock::now() + kSpinFor;
    while (word.load(std::memory_order_acquire) == seen) {
      if (HostClock::now() >= give_up) {
        break;
      }
      std::this_thread::yield();
    }
  }
  while (word.load(std::memory_order_acquire) == seen) {
    word.wait(seen, std::memory_order_acquire);
  }
}

// Identifies the partition a worker thread (or the coordinator, while it runs
// a window inline) is executing. Thread-local so Simulator::Now() and
// ScheduleAt can tell "inside a window on this simulator" apart from both
// serial execution and unrelated simulators on sibling threads (the
// experiment runner runs one serial simulator per pool thread).
struct WindowCtx {
  const void* sim = nullptr;
  std::uint32_t queue = 0;
};
thread_local WindowCtx t_window_ctx;

}  // namespace

Simulator::~Simulator() { StopPool(); }

EventId Simulator::ScheduleAt(Time t, EventDomain domain, EventFn fn) {
  std::uint32_t qi;
  std::uint64_t seq;
  Time floor;
  if (!parallel_phase_) {
    // Serial mode or a coordinator step between windows: real seqs, routed by
    // domain (always queue 0 when workers_ == 1 — the unchanged hot path).
    qi = QueueForDomain(domain);
    floor = now_;
    seq = next_seq_++;
  } else {
    // Inside a window: route to the executing partition's own queue (for
    // site-tagged events this is its home queue — cross-site scheduling only
    // happens through fenced network delivery, which never runs in a window —
    // and routing untagged events to self keeps every queue single-writer).
    // The seq is provisional; MergeWindow rewrites it to the exact value the
    // serial run would have assigned.
    assert(t_window_ctx.sim == this && "scheduling into a foreign running simulator");
    qi = t_window_ctx.queue;
    Queue& wq = queues_[qi];
    floor = wq.local_now;
    seq = kProvisionalSeq | wq.local_ctr++;
    ++wq.fire_log.back().children;
  }
  Queue& q = queues_[qi];
  if (t < floor) {
    t = floor;
  }
  const std::uint32_t slot = AcquireSlot(q, std::move(fn), domain);
  const std::uint32_t gen = q.slots[slot].gen;
  q.heap.push_back(Entry{t, seq, slot, gen});
  SiftUp(q, q.heap.size() - 1);
  ++q.live;
  return MakeId(qi, slot, gen);
}

std::uint32_t Simulator::AcquireSlot(Queue& q, EventFn fn, EventDomain domain) {
  std::uint32_t slot;
  if (q.free_head != kNoFree) {
    slot = q.free_head;
    q.free_head = q.slots[slot].next_free;
  } else {
    if (q.slots.size() >= kSlotMask - 1) {
      // The slot index must fit the id encoding's 26-bit field; 67M
      // simultaneously pending events per partition means a runaway anyway.
      throw std::runtime_error("Simulator: pending-event slot pool overflow");
    }
    slot = static_cast<std::uint32_t>(q.slots.size());
    q.slots.emplace_back();
  }
  Slot& s = q.slots[slot];
  s.fn = std::move(fn);
  s.domain = domain;
  s.next_free = kNoFree;
  return slot;
}

bool Simulator::Cancel(EventId id) {
  if (id == 0) {
    return false;
  }
  const std::uint32_t low = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const std::uint32_t slot_field = low & kSlotMask;
  const std::uint32_t qi = low >> kQueueShift;
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slot_field == 0 || qi >= queues_.size()) {
    return false;
  }
  Queue& q = queues_[qi];
  const std::uint32_t slot = slot_field - 1;
  if (slot >= q.slots.size() || q.slots[slot].gen != gen) {
    return false;  // already fired, already cancelled, or never existed
  }
  // A window may only cancel within its own partition (cross-partition cancel
  // would race on the target's heap; no simulation code does this — timers
  // are always cancelled by their own site).
  assert(!parallel_phase_ || (t_window_ctx.sim == this && t_window_ctx.queue == qi));
  // Lazy cancellation: free the slot now (bumping its generation turns the
  // queue entry into a tombstone) and let the entry surface and be skipped
  // whenever it reaches the heap top.
  ReleaseSlot(q, slot);
  --q.live;
  // Cancellation-heavy phases (timer races under fault injection) can leave
  // many far-future tombstones that won't surface for a while; compact once
  // dead entries dominate so heap memory stays proportional to live events.
  if (q.heap.size() >= 64 && q.heap.size() > 4 * q.live) {
    Compact(q);
  }
  return true;
}

void Simulator::Compact(Queue& q) {
  std::size_t out = 0;
  for (const Entry& e : q.heap) {
    if (IsLive(q, e)) {
      q.heap[out++] = e;
    }
  }
  q.heap.resize(out);
  // Floyd heapify: rebuilding changes only the heap's internal layout, never
  // the pop order — (time, seq) is a total order, so firing order is
  // determined by the comparator alone.
  if (out > 1) {
    for (std::size_t i = (out - 2) / 2 + 1; i-- > 0;) {
      SiftDown(q, i);
    }
  }
}

// Bottom-up pop: push the root hole down along the min-child path (one
// comparison per level — no check against a sifting element), drop the last
// entry into the leaf hole, and sift it up. The displaced entry came from
// the bottom, so it almost never climbs more than a level; total comparisons
// are ~log2(n) instead of the ~2*log2(n) of the textbook sift-down pop.
void Simulator::PopHeapTop(Queue& q) {
  const std::size_t n = q.heap.size() - 1;  // size after the pop
  if (n == 0) {
    q.heap.pop_back();
    return;
  }
  std::size_t hole = 0;
  for (;;) {
    std::size_t left = 2 * hole + 1;
    if (left >= n) {
      break;
    }
    std::size_t right = left + 1;
    std::size_t min_c = (right < n && q.heap[right].Before(q.heap[left])) ? right : left;
    q.heap[hole] = q.heap[min_c];
    hole = min_c;
  }
  Entry e = q.heap[n];
  q.heap.pop_back();
  while (hole > 0) {
    std::size_t parent = (hole - 1) / 2;
    if (!e.Before(q.heap[parent])) {
      break;
    }
    q.heap[hole] = q.heap[parent];
    hole = parent;
  }
  q.heap[hole] = e;
}

void Simulator::SiftUp(Queue& q, std::size_t i) {
  Entry e = q.heap[i];
  while (i > 0) {
    std::size_t parent = (i - 1) / 2;
    if (!e.Before(q.heap[parent])) {
      break;
    }
    q.heap[i] = q.heap[parent];
    i = parent;
  }
  q.heap[i] = e;
}

void Simulator::SiftDown(Queue& q, std::size_t i) {
  Entry e = q.heap[i];
  const std::size_t n = q.heap.size();
  for (;;) {
    std::size_t left = 2 * i + 1;
    if (left >= n) {
      break;
    }
    std::size_t best = left;
    std::size_t right = left + 1;
    if (right < n && q.heap[right].Before(q.heap[left])) {
      best = right;
    }
    if (!q.heap[best].Before(e)) {
      break;
    }
    q.heap[i] = q.heap[best];
    i = best;
  }
  q.heap[i] = e;
}

bool Simulator::SelectNext(Queue& q) {
  while (!q.heap.empty() && !IsLive(q, q.heap.front())) {
    PopHeapTop(q);
  }
  return !q.heap.empty();
}

void Simulator::FireTop(Queue& q) {
  Entry e = q.heap.front();
  PopHeapTop(q);
  // max(): a controller firing a later-stamped candidate first may already
  // have advanced the clock past this entry's timestamp (the entry's work is
  // then simply late). Without a controller heap order keeps this a no-op.
  if (e.time > now_) {
    now_ = e.time;
  }
  EventFn fn = std::move(q.slots[e.slot].fn);
  ReleaseSlot(q, e.slot);
  --q.live;
  ++processed_;
  fn();
}

void Simulator::FireEntry(Queue& q, const Entry& e) {
  if (e.time > now_) {
    now_ = e.time;
  }
  EventFn fn = std::move(q.slots[e.slot].fn);
  // ReleaseSlot bumps the generation, turning the entry still inside the
  // heap into a tombstone that SelectNext will skip later.
  ReleaseSlot(q, e.slot);
  --q.live;
  ++processed_;
  fn();
}

// The controlled dispatch of DESIGN.md §11: collect every live entry whose
// timestamp is within the perturbation window of the minimum, keep only the
// entries with no earlier pending event in their own domain (per-domain
// FIFO = each sequential machine stays sequential), and let the controller
// pick which fires. Linear heap scans are fine here — controlled runs are
// small-world model-checking runs, never the perf path. Controlled mode is
// mutually exclusive with SetWorkers, so everything lives in queue 0.
void Simulator::FireControlled() {
  Queue& q = queues_[0];
  const Entry top = q.heap.front();
  const Time threshold = top.time + perturb_window_us_;
  cand_scratch_.clear();
  for (const Entry& e : q.heap) {
    if (e.time <= threshold && IsLive(q, e)) {
      cand_scratch_.push_back(e);
    }
  }
  std::sort(cand_scratch_.begin(), cand_scratch_.end(),
            [](const Entry& a, const Entry& b) { return a.Before(b); });
  eligible_scratch_.clear();
  eligible_idx_scratch_.clear();
  for (std::size_t i = 0; i < cand_scratch_.size(); ++i) {
    const EventDomain dom = q.slots[cand_scratch_[i].slot].domain;
    if (dom == kNoDomain && i != 0) {
      continue;  // untagged events fire only at their FIFO position
    }
    bool blocked = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (q.slots[cand_scratch_[j].slot].domain == dom) {
        blocked = true;  // an earlier event of the same domain is pending
        break;
      }
    }
    if (!blocked) {
      eligible_scratch_.push_back(
          SchedCandidate{cand_scratch_[i].time, cand_scratch_[i].seq, dom});
      eligible_idx_scratch_.push_back(i);
    }
  }
  std::size_t pick = 0;
  if (eligible_scratch_.size() >= 2) {
    pick = controller_->ChooseNext(eligible_scratch_);
    if (pick >= eligible_scratch_.size()) {
      pick = 0;  // defensive: an out-of-range choice degrades to FIFO
    }
  }
  const Entry chosen = cand_scratch_[eligible_idx_scratch_[pick]];
  if (chosen.slot == top.slot && chosen.gen == top.gen) {
    FireTop(q);
  } else {
    FireEntry(q, chosen);
  }
  controller_->AfterEvent(now_);
}

void Simulator::SetController(ScheduleController* c, Duration perturb_window_us) {
  if (c != nullptr && workers_ > 1) {
    throw std::logic_error(
        "Simulator::SetController: a ScheduleController cannot be installed while "
        "parallel workers are active — mcheck's systematic schedule exploration "
        "requires the serial dispatcher. Call SetWorkers(1) first.");
  }
  controller_ = c;
  perturb_window_us_ = perturb_window_us > 0 ? perturb_window_us : 0;
}

std::uint64_t Simulator::Run(std::uint64_t max_events) {
  return RunLoop(kMaxTime, max_events, /*advance_clock=*/false);
}

std::uint64_t Simulator::RunUntil(Time deadline, std::uint64_t max_events) {
  return RunLoop(deadline, max_events, /*advance_clock=*/true);
}

std::uint64_t Simulator::RunLoop(Time deadline, std::uint64_t max_events, bool advance_clock) {
  if (running_) {
    // A nested run would fire events in the middle of another event, and
    // TryRunAhead would read the inner run's bounds as the outer's.
    throw std::logic_error("Simulator: Run/RunUntil called from inside an event; runs do not nest");
  }
  // Cleared on every exit, including an exception escaping an event, so a
  // later run starts clean.
  struct RunningFlag {
    bool& flag;
    ~RunningFlag() { flag = false; }
  } running{running_};
  running_ = true;
  stop_requested_ = false;
  if (workers_ <= 1) {
    run_deadline_ = deadline;
    run_budget_ = max_events;
    run_fired_ = 0;
    return RunSerial(advance_clock);
  }
  return RunParallel(deadline, max_events, advance_clock);
}

std::uint64_t Simulator::RunSerial(bool advance_clock) {
  Queue& q = queues_[0];
  while (q.live > 0 && !stop_requested_ && run_fired_ < run_budget_) {
    if (!SelectNext(q)) {
      break;  // unreachable while live > 0; defensive
    }
    if (q.heap.front().time > run_deadline_) {
      break;
    }
    // Counted before it fires, so a TryRunAhead inside it sees the budget
    // this event has already used.
    ++run_fired_;
    if (controller_ != nullptr) {
      FireControlled();
    } else {
      FireTop(q);
    }
  }
  if (advance_clock && !stop_requested_ && now_ < run_deadline_) {
    now_ = run_deadline_;
  }
  return run_fired_;
}

// The serial dispatcher's next pick would be the follow-up exactly when its
// (time, seq) orders before every live entry: its seq would be the largest
// yet, so it must be strictly earlier. Pruning tombstones off the top is
// what that dispatch would do first anyway.
bool Simulator::TryRunAhead(Duration delay) {
  if (workers_ > 1 || controller_ != nullptr || !running_ || stop_requested_ ||
      run_fired_ >= run_budget_) {
    return false;
  }
  const Time t = now_ + (delay > 0 ? delay : 0);
  if (t > run_deadline_) {
    return false;
  }
  Queue& q = queues_[0];
  if (SelectNext(q) && q.heap.front().time <= t) {
    return false;
  }
  now_ = t;
  ++next_seq_;
  ++processed_;
  ++ran_ahead_;
  ++run_fired_;
  return true;
}

// ---- Conservative parallel execution (DESIGN.md §12) ----

void Simulator::SetWorkers(int n, int sites) {
  n = std::clamp(n, 1, kMaxWorkers);
  const auto block_sites =
      static_cast<std::uint32_t>(n > 1 ? std::clamp(sites, n, int{kMaxSiteDomain}) : 1);
  if (n == workers_ && block_sites == block_sites_) {
    return;
  }
  if (n > 1 && controller_ != nullptr) {
    throw std::logic_error(
        "Simulator::SetWorkers: parallel execution and a ScheduleController are "
        "mutually exclusive — mcheck's systematic schedule exploration requires "
        "the serial dispatcher. Remove the controller (SetController(nullptr)) "
        "before enabling workers.");
  }
  if (PendingEvents() != 0) {
    throw std::logic_error(
        "Simulator::SetWorkers: the worker count must be changed while no events "
        "are pending — events are routed to a partition when scheduled.");
  }
  StopPool();
  workers_ = n;
  block_sites_ = block_sites;
  queues_.clear();
  queues_.resize(n > 1 ? static_cast<std::size_t>(n) + 1 : 1);
  if (n > 1) {
    StartPool();
  }
}

void Simulator::BeginSendFence(EventDomain domain, Time lower_bound) {
  if (workers_ <= 1) {
    return;
  }
  // Keyed by the *home* queue of the sending domain, which is also the only
  // queue whose thread can be executing that domain's code mid-window — so
  // each fence list stays single-writer; the coordinator reads them only
  // between windows (the window barrier orders both directions).
  Queue& q = queues_[QueueForDomain(domain)];
  auto it = std::upper_bound(q.send_fences.begin(), q.send_fences.end(), lower_bound);
  q.send_fences.insert(it, lower_bound);
}

void Simulator::EndSendFence(EventDomain domain, Time lower_bound) {
  if (workers_ <= 1) {
    return;
  }
  Queue& q = queues_[QueueForDomain(domain)];
  auto it = std::lower_bound(q.send_fences.begin(), q.send_fences.end(), lower_bound);
  if (it != q.send_fences.end() && *it == lower_bound) {
    q.send_fences.erase(it);
  }
}

Time Simulator::NowInWindow() const {
  if (t_window_ctx.sim == this) {
    return queues_[t_window_ctx.queue].local_now;
  }
  return now_;
}

std::uint64_t Simulator::RunParallel(Time deadline, std::uint64_t max_events, bool advance_clock) {
  const int num_partitions = workers_;
  std::uint64_t n = 0;
  while (!stop_requested_ && n < max_events) {
    // Global minimum entry across all queues (pruning tombstones as we go).
    int best = -1;
    for (int i = 0; i <= num_partitions; ++i) {
      if (!SelectNext(queues_[i])) {
        continue;
      }
      if (best < 0 || queues_[i].heap.front().Before(queues_[best].heap.front())) {
        best = i;
      }
    }
    if (best < 0) {
      break;  // drained
    }
    const Time t_min = queues_[best].heap.front().time;
    if (t_min > deadline) {
      break;
    }
    // Conservative horizon H: every event strictly below H may fire without
    // coordination, because nothing can inject work below H from outside a
    // partition — the only cross-partition edge is network delivery, and
    // every undelivered send is fenced at its delivery lower bound (>= its
    // scheduling instant + lookahead). Home-queue events (untagged and
    // non-site domains) always execute serially, so they clamp H too.
    Time horizon = deadline == kMaxTime ? kMaxTime : deadline + 1;
    if (lookahead_ > 0 && t_min <= kMaxTime - lookahead_) {
      horizon = std::min(horizon, t_min + lookahead_);
    } else {
      horizon = t_min;  // no lookahead: conservative serial stepping
    }
    if (!queues_[0].heap.empty()) {
      horizon = std::min(horizon, queues_[0].heap.front().time);
    }
    for (int i = 1; i <= num_partitions; ++i) {
      const Queue& q = queues_[i];
      if (!q.send_fences.empty()) {
        horizon = std::min(horizon, q.send_fences.front());
      }
    }
    // A window fires an a-priori unknown number of events, so a bounded
    // max_events budget (a runaway guard callers expect to be exact) forces
    // serial stepping; the normal run paths pass an unlimited budget.
    int active = 0;
    int only = -1;
    if (horizon > t_min && max_events == UINT64_MAX) {
      for (int i = 1; i <= num_partitions; ++i) {
        if (!queues_[i].heap.empty() && queues_[i].heap.front().time < horizon) {
          ++active;
          only = i;
        }
      }
    }
    if (active >= 1) {
      n += ExecuteWindow(horizon, active, static_cast<std::uint32_t>(only));
      continue;
    }
    // Serial step: fire the single globally-minimal event on the coordinator
    // with full cross-partition visibility (this is where network deliveries
    // and home-queue events always land).
    FireTop(queues_[best]);
    ++n;
    ++pstats_.serial_steps;
  }
  if (advance_clock && !stop_requested_ && now_ < deadline) {
    now_ = deadline;
  }
  return n;
}

std::uint64_t Simulator::ExecuteWindow(Time horizon, int active, std::uint32_t only_queue) {
  horizon_ = horizon;
  for (int i = 1; i <= workers_; ++i) {
    Queue& q = queues_[i];
    q.local_now = now_;
    q.local_ctr = 0;
    q.fire_log.clear();
    q.error = nullptr;
  }
  parallel_phase_ = true;
  ++pstats_.windows;
  if (active == 1) {
    // One partition has work below the horizon: run its window inline and
    // skip the thread fan-out (still the window code path, so behaviour is
    // identical — only the wall-clock differs).
    ++pstats_.single_partition_windows;
    RunQueueWindow(only_queue, horizon);
  } else {
    pending_.store(static_cast<std::uint32_t>(workers_ - 1), std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    RunQueueWindow(1, horizon);  // the coordinator is partition 1's worker
    const HostClock::time_point wait_start = HostClock::now();
    for (std::uint32_t left = pending_.load(std::memory_order_acquire); left != 0;
         left = pending_.load(std::memory_order_acquire)) {
      AwaitChange(pending_, left);
    }
    pstats_.barrier_wait_s += SecondsSince(wait_start);
  }
  parallel_phase_ = false;
  const HostClock::time_point merge_start = HostClock::now();
  const std::uint64_t fired = MergeWindow();
  pstats_.merge_s += SecondsSince(merge_start);
  pstats_.window_events += fired;
  processed_ += fired;
  for (int i = 1; i <= workers_; ++i) {
    if (queues_[i].error) {
      std::rethrow_exception(queues_[i].error);
    }
  }
  return fired;
}

void Simulator::RunQueueWindow(std::uint32_t qi, Time horizon) {
  Queue& q = queues_[qi];
  t_window_ctx = WindowCtx{this, qi};
  for (;;) {
    if (!SelectNext(q)) {
      break;
    }
    const Entry e = q.heap.front();
    if (e.time >= horizon) {
      break;
    }
    PopHeapTop(q);
    if (e.time > q.local_now) {
      q.local_now = e.time;
    }
    q.fire_log.push_back(FireRec{e.time, e.seq, 0});
    EventFn fn = std::move(q.slots[e.slot].fn);
    ReleaseSlot(q, e.slot);
    --q.live;
    try {
      fn();
    } catch (...) {
      // Captured and rethrown by the coordinator after the barrier: a torn
      // window is unrecoverable, but the run harness gets the real error.
      q.error = std::current_exception();
      break;
    }
  }
  t_window_ctx = WindowCtx{};
}

std::uint64_t Simulator::MergeWindow() {
  std::uint64_t fired = 0;
  Time max_fired_time = now_;
  for (int i = 1; i <= workers_; ++i) {
    Queue& q = queues_[i];
    q.merge_idx = 0;
    q.assign_cursor = 0;
    q.resolved.resize(static_cast<std::size_t>(q.local_ctr));
    fired += q.fire_log.size();
    if (q.local_now > max_fired_time) {
      max_fired_time = q.local_now;
    }
  }
  // Replay the per-partition fire logs as one globally-(time, seq)-ordered
  // stream — exactly the order the serial dispatcher would have used — and
  // assign each replayed event's children the next real seqs. An event's own
  // resolved seq is always available when it reaches the front of its log:
  // its creator fired earlier in the same partition (scheduling routes to
  // self mid-window), so the creator's replay already assigned it.
  for (std::uint64_t done = 0; done < fired; ++done) {
    int best = -1;
    Time best_time = 0;
    std::uint64_t best_seq = 0;
    for (int i = 1; i <= workers_; ++i) {
      Queue& q = queues_[i];
      if (q.merge_idx >= q.fire_log.size()) {
        continue;
      }
      const FireRec& r = q.fire_log[q.merge_idx];
      const std::uint64_t s =
          r.seq < kProvisionalSeq
              ? r.seq
              : q.resolved[static_cast<std::size_t>(r.seq & ~kProvisionalSeq)];
      if (best < 0 || r.time < best_time || (r.time == best_time && s < best_seq)) {
        best = i;
        best_time = r.time;
        best_seq = s;
      }
    }
    Queue& q = queues_[best];
    const FireRec& r = q.fire_log[q.merge_idx++];
    for (std::uint32_t c = 0; c < r.children; ++c) {
      q.resolved[q.assign_cursor++] = next_seq_++;
    }
  }
  // Rewrite the provisional seqs of events that survived the window (they
  // fire in a later window or serial step). The provisional->real mapping is
  // monotone within a partition — provisional seqs were handed out in the
  // same order replay assigns real ones, and all real seqs predate all
  // provisional ones — so entries can be rewritten in place without
  // disturbing heap order.
  for (int i = 1; i <= workers_; ++i) {
    Queue& q = queues_[i];
    if (q.local_ctr == 0) {
      continue;
    }
    for (Entry& e : q.heap) {
      if (e.seq >= kProvisionalSeq) {
        e.seq = q.resolved[static_cast<std::size_t>(e.seq & ~kProvisionalSeq)];
      }
    }
  }
  if (max_fired_time > now_) {
    now_ = max_fired_time;
  }
  return fired;
}

// No pool thread exists here (the last StopPool joined them all), so plain
// stores suffice: starting a thread orders them before its first read.
void Simulator::StartPool() {
  shutdown_ = false;
  epoch_.store(0, std::memory_order_relaxed);
  pending_.store(0, std::memory_order_relaxed);
  g_window_threads.fetch_add(workers_, std::memory_order_relaxed);
  pool_.reserve(static_cast<std::size_t>(workers_) - 1);
  // The coordinator doubles as partition 1's executor; threads take 2..n.
  for (int i = 2; i <= workers_; ++i) {
    pool_.emplace_back([this, i] { WorkerMain(static_cast<std::uint32_t>(i)); });
  }
}

void Simulator::StopPool() {
  if (pool_.empty()) {
    return;
  }
  shutdown_ = true;
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (std::thread& t : pool_) {
    t.join();
  }
  g_window_threads.fetch_sub(static_cast<int>(pool_.size()) + 1, std::memory_order_relaxed);
  pool_.clear();
}

void Simulator::WorkerMain(std::uint32_t qi) {
  std::uint32_t seen = 0;
  for (;;) {
    AwaitChange(epoch_, seen);
    seen = epoch_.load(std::memory_order_acquire);
    if (shutdown_) {
      return;
    }
    RunQueueWindow(qi, horizon_);
    // The last partition to finish wakes the coordinator if it parked.
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

}  // namespace msim

