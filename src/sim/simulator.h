// Deterministic discrete-event simulator core.
//
// The simulator owns a virtual clock and an event queue. Events scheduled for
// the same instant fire in the order they were scheduled (FIFO), which makes
// every run bit-for-bit reproducible.
//
// Hot-path design (DESIGN.md §10): the queue is an array-backed binary
// min-heap ordered by (time, seq) — seq is a monotonic per-schedule counter,
// so equal-time FIFO is preserved exactly as the earlier std::map keyed on
// (time, id) did it. A push at the current instant (the kernel's Schedule(0)
// storms: rescheds, channel wakeups) costs a single parent comparison,
// because the new entry's seq is the largest so far and never sifts past an
// equal-time parent. Event callables live in a pooled slot array (free-list
// recycled, so steady-state scheduling performs zero allocations once the
// pools warm up) and are InlineFunction rather than std::function, which
// removes the per-event closure heap allocation. Cancel is O(1) lazy
// tombstoning: the slot's generation is bumped and the queue entry left
// behind; the dispatcher skips dead entries, so cancelling an already-fired
// or unknown id stays a harmless no-op and PendingEvents() never counts
// tombstones. TryRunAhead (DESIGN.md §10.7) lets a firing event claim its
// own follow-up when the dispatcher would fire that next anyway, so a
// process computing alone skips the queue round trip per compute slice.
//
// Parallel execution (DESIGN.md §12): SetWorkers(n > 1) partitions the event
// space into n per-partition queues (site domain d -> partition d % n) plus
// one home queue for untagged and non-site events, and executes conservative
// lookahead windows: whenever every cross-partition interaction is provably
// later than now + lookahead (network sends fence themselves via
// BeginSendFence with their cost-model transmit time as the lower bound),
// all events below that horizon fire concurrently, one thread per partition.
// A replay merge then reassigns the globally-consistent (time, seq) order the
// serial simulator would have produced, so reports and traces stay
// byte-identical at any worker count. Serial mode (n == 1, the default) is
// the unchanged single-queue hot path.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/sim/inline_fn.h"
#include "src/sim/time.h"

namespace msim {

// Identifies a scheduled event so it can be cancelled. Id 0 is never used.
// Internally encoded as (generation << 32 | queue << 26 | slot + 1); opaque
// to callers. In serial mode the queue index is always 0, so ids are
// numerically identical to the pre-parallel encoding.
using EventId = std::uint64_t;

// Event ordering domain (src/check, DESIGN.md §11). Events in the same
// domain model a sequential executor (one site's CPU, one FIFO circuit) and
// always fire in schedule order relative to each other; events in different
// domains model genuinely concurrent machinery, so a schedule controller may
// legally reorder them — and a parallel run may execute them on different
// worker threads. kNoDomain is its own group: untagged events stay FIFO
// among themselves and are never offered as alternatives.
using EventDomain = std::int32_t;
inline constexpr EventDomain kNoDomain = -1;

// One controller-visible candidate at a choice point.
struct SchedCandidate {
  Time time = 0;
  std::uint64_t seq = 0;
  EventDomain domain = kNoDomain;
};

// Controlled-scheduler hook (mcheck's systematic schedule exploration).
//
// When installed, the simulator stops firing strictly in (time, seq) order:
// at every dispatch where more than one event is *eligible* — its timestamp
// within `perturb_window_us` of the minimum and no earlier event pending in
// its own domain — the controller picks which fires. Choosing a candidate
// with a later timestamp advances the clock to that timestamp, i.e. it
// delays every earlier-stamped pending event by up to the window: a bounded
// latency perturbation. Per-domain FIFO is enforced by the eligibility rule,
// so every choice sequence corresponds to a physically realizable execution
// (machines run concurrently; each machine stays sequential).
class ScheduleController {
 public:
  virtual ~ScheduleController() = default;
  // `eligible` is sorted by (time, seq); index 0 is the default FIFO pick.
  // Called only when eligible.size() >= 2. Return the index to fire.
  virtual std::size_t ChooseNext(const std::vector<SchedCandidate>& eligible) = 0;
  // Called after every event fires (invariant sampling hooks).
  virtual void AfterEvent(Time now) { (void)now; }
};

// The event-driven heart of the simulation. Serial by default; SetWorkers
// opts into conservative site-partitioned parallel execution whose observable
// behaviour (event order, clocks, ids handed back in (time, seq) dispatch)
// is byte-identical to the serial run.
class Simulator {
 public:
  Simulator() { queues_.resize(1); }
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time. During a parallel window this is the executing
  // partition's local clock (the timestamp of its current event — exactly
  // what the serial simulator would report while firing that event).
  Time Now() const { return parallel_phase_ ? NowInWindow() : now_; }

  // Schedules `fn` to run `delay` microseconds from now. A negative delay is
  // treated as zero. Returns an id usable with Cancel(). The optional domain
  // tags the event for a ScheduleController (see EventDomain) and selects
  // its partition under SetWorkers; untagged events are never reordered.
  EventId Schedule(Duration delay, EventFn fn) {
    return ScheduleAt(Now() + (delay > 0 ? delay : 0), kNoDomain, std::move(fn));
  }
  EventId Schedule(Duration delay, EventDomain domain, EventFn fn) {
    return ScheduleAt(Now() + (delay > 0 ? delay : 0), domain, std::move(fn));
  }

  // Schedules `fn` at absolute time `t` (clamped to now).
  EventId ScheduleAt(Time t, EventFn fn) { return ScheduleAt(t, kNoDomain, std::move(fn)); }
  EventId ScheduleAt(Time t, EventDomain domain, EventFn fn);

  // Cancels a pending event in O(1). Returns true if the event was still
  // pending. Cancelling an already-fired (or unknown) id is a harmless
  // no-op: the id's generation no longer matches any live slot.
  bool Cancel(EventId id);

  // Runs events until the queue drains, Stop() is called, or `max_events`
  // events have fired (a guard against accidental infinite simulations).
  // Returns the number of events processed.
  std::uint64_t Run(std::uint64_t max_events = UINT64_MAX);

  // Runs events with timestamps <= `deadline`. The clock is advanced to
  // `deadline` even if the queue drains early. Returns events processed.
  // Runs do not nest: calling Run() or RunUntil() from inside an event
  // throws std::logic_error.
  std::uint64_t RunUntil(Time deadline, std::uint64_t max_events = UINT64_MAX);

  // Serial run-ahead (DESIGN.md §10.7). For an event that is firing and
  // would end by scheduling one follow-up `delay` from now, with nothing
  // else left to do: if that follow-up would be the very next event to fire
  // — strictly earlier than every live pending event (a tie goes to the
  // pending event, whose seq is smaller), no later than the run's deadline,
  // within its event budget, and with no Stop() requested — claims it and
  // returns true. The clock advances to it, and it counts as fired (in
  // ProcessedEvents() and the run's return value) and takes the seq it
  // would have been scheduled with; the caller then does its work inline.
  // Otherwise returns false and changes nothing. Always false outside the
  // serial dispatcher: between runs, in parallel mode, and under a
  // ScheduleController.
  bool TryRunAhead(Duration delay);

  // Makes Run()/RunUntil() return after the current event completes.
  void Stop() { stop_requested_ = true; }

  // True if no live events are pending (tombstones don't count).
  bool Empty() const { return PendingEvents() == 0; }

  // Number of pending (non-cancelled) events.
  std::size_t PendingEvents() const {
    std::size_t n = 0;
    for (const Queue& q : queues_) {
      n += q.live;
    }
    return n;
  }

  // Total events processed since construction.
  std::uint64_t ProcessedEvents() const { return processed_; }
  // Of those, the events claimed by TryRunAhead.
  std::uint64_t RunAheadEvents() const { return ran_ahead_; }

  // Installs (or, with nullptr, removes) the schedule controller. The
  // controller is consulted only at dispatches with >= 2 eligible events;
  // a null controller keeps the exact FIFO hot path. `perturb_window_us`
  // widens the candidate set to events within that span of the minimum
  // timestamp (0 = same-instant ties only). Mutually exclusive with
  // SetWorkers(n > 1): installing one while the other is active throws.
  void SetController(ScheduleController* c, Duration perturb_window_us = 0);
  ScheduleController* controller() const { return controller_; }

  // ---- Conservative parallel execution (DESIGN.md §12) ----

  // Switches to `n` worker threads (1 = serial, the default; clamped to
  // kMaxWorkers). Must be called with no pending events (events already
  // routed under the old partition count cannot be re-homed) and never with
  // a ScheduleController installed — both misuses throw std::logic_error.
  void SetWorkers(int n);
  int workers() const { return workers_; }

  // The conservative lookahead: the minimum simulated time that must pass
  // between scheduling any cross-partition interaction and its effect (for
  // the DSM world: the cost model's minimum transmit time, since Network
  // delivery is the only cross-partition edge). 0 (the default) disables
  // window formation, degrading parallel mode to serial stepping.
  void SetMinLookahead(Duration la) { lookahead_ = la > 0 ? la : 0; }
  Duration min_lookahead() const { return lookahead_; }

  // Send fencing: a sender that has decided to deliver a message at some
  // time >= lower_bound (but has not yet scheduled the delivery, e.g. it is
  // still paying the transmit cost as simulated compute) brackets the gap
  // with BeginSendFence/EndSendFence. Parallel windows never advance past an
  // open fence, so the eventual delivery always executes in a serial step —
  // never concurrently with other partitions. No-ops in serial mode.
  void BeginSendFence(EventDomain domain, Time lower_bound);
  void EndSendFence(EventDomain domain, Time lower_bound);

  static constexpr int kMaxWorkers = 32;

 private:
  // One heap entry. (time, seq) is the global total firing order; (slot, gen)
  // locates the callable and detects cancellation (gen mismatch = tombstone,
  // skip). During a parallel window, events created by worker threads carry a
  // provisional seq (kProvisionalSeq | creation counter) that the post-window
  // replay merge rewrites to the exact seq the serial run would have used;
  // provisional seqs order after every real seq and in creation order among
  // themselves, which is precisely the serial relative order, so the rewrite
  // is monotone and never disturbs the heap.
  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;

    bool Before(const Entry& o) const {
      return time != o.time ? time < o.time : seq < o.seq;
    }
  };

  // One pooled event record. `gen` counts reuses of the slot: every fire,
  // cancel, or reacquire bumps it, which invalidates any EventId or queue
  // entry still pointing here. `domain` lives here rather than in Entry so
  // heap sifts keep moving 24-byte entries.
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoFree;
    EventDomain domain = kNoDomain;
  };

  // One fired event in a window's replay log: its timestamp, its (possibly
  // provisional) seq, and how many events it scheduled while running.
  struct FireRec {
    Time time;
    std::uint64_t seq;
    std::uint32_t children;
  };

  // An independent event queue: the whole simulator in serial mode (index 0),
  // or one partition (indices 1..workers) in parallel mode. Each partition's
  // window state (local clock, provisional-seq counter, replay log, open
  // send fences) lives here too, so a window touches no shared mutable state
  // until the barrier.
  struct Queue {
    std::vector<Entry> heap;
    std::vector<Slot> slots;
    std::uint32_t free_head = kNoFree;
    std::size_t live = 0;

    // Window execution state (owned by the executing thread mid-window, by
    // the coordinator otherwise; the window barrier orders the handoff).
    Time local_now = 0;
    std::uint64_t local_ctr = 0;           // provisional seqs handed out
    std::vector<FireRec> fire_log;         // this window's fires, in order
    std::vector<std::uint64_t> resolved;   // provisional ctr -> real seq
    std::exception_ptr error;
    // Open send fences' delivery lower bounds, ascending. Sends overlap only
    // a little (one in-flight transmit per process), so a sorted small
    // vector beats a multiset.
    std::vector<Time> send_fences;
    // Replay-merge cursors.
    std::size_t merge_idx = 0;
    std::size_t assign_cursor = 0;
  };

  static constexpr std::uint32_t kNoFree = UINT32_MAX;
  static constexpr std::uint32_t kQueueShift = 26;
  static constexpr std::uint32_t kSlotMask = (1u << kQueueShift) - 1;
  static constexpr std::uint64_t kProvisionalSeq = 1ull << 63;
  // Site event domains are small dense integers; anything at or above this
  // (the virtual-circuit pair domains) or negative routes to the home queue.
  static constexpr EventDomain kMaxSiteDomain = 0x10000;

  static EventId MakeId(std::uint32_t queue, std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | (static_cast<EventId>(queue) << kQueueShift) |
           (slot + 1);
  }

  std::uint32_t QueueForDomain(EventDomain d) const {
    if (workers_ <= 1 || d < 0 || d >= kMaxSiteDomain) {
      return 0;
    }
    return 1 + static_cast<std::uint32_t>(d) % static_cast<std::uint32_t>(workers_);
  }

  std::uint32_t AcquireSlot(Queue& q, EventFn fn, EventDomain domain);
  // Bumps the generation (invalidating ids and queue tombstones) and returns
  // the slot to the free list. The callable is destroyed here, not at pop
  // time, so cancelled closures release their captures promptly.
  void ReleaseSlot(Queue& q, std::uint32_t slot) {
    Slot& s = q.slots[slot];
    s.fn = EventFn();
    ++s.gen;
    s.next_free = q.free_head;
    q.free_head = slot;
  }

  static bool IsLive(const Queue& q, const Entry& e) { return q.slots[e.slot].gen == e.gen; }

  // Prunes tombstones off the heap top; true if a live entry remains.
  static bool SelectNext(Queue& q);
  void FireTop(Queue& q);
  // Controller dispatch: gathers eligible candidates, lets the controller
  // pick, and fires the chosen entry (possibly out of heap order).
  void FireControlled();
  void FireEntry(Queue& q, const Entry& e);
  static void PopHeapTop(Queue& q);
  static void SiftUp(Queue& q, std::size_t i);
  static void SiftDown(Queue& q, std::size_t i);
  static void Compact(Queue& q);

  Time NowInWindow() const;
  // Run() and RunUntil(): refuses nesting, then picks the serial or the
  // parallel loop.
  std::uint64_t RunLoop(Time deadline, std::uint64_t max_events, bool advance_clock);
  // The serial core loop (workers_ == 1), bounded by run_deadline_ and
  // run_budget_.
  std::uint64_t RunSerial(bool advance_clock);
  // The parallel loop: windows where the lookahead allows, exact serial
  // steps (global (time, seq) order across all queues) where it does not.
  std::uint64_t RunParallel(Time deadline, std::uint64_t max_events, bool advance_clock);
  // Runs one window: fans partitions out (or runs the single active one
  // inline), barriers, merges, and rethrows any captured worker error.
  std::uint64_t ExecuteWindow(Time horizon, int active, std::uint32_t only_queue);
  // Fires every event of queue `qi` below `horizon`, logging for the merge.
  void RunQueueWindow(std::uint32_t qi, Time horizon);
  // Replays the window's fire logs in global order, assigning the exact
  // serial seqs to every event created mid-window.
  std::uint64_t MergeWindow();
  void StartPool();
  void StopPool();
  void WorkerMain(std::uint32_t qi);

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::uint64_t ran_ahead_ = 0;
  bool stop_requested_ = false;
  bool running_ = false;  // inside Run()/RunUntil()
  // The current run's deadline, event budget and fired count: RunSerial's
  // loop bounds, which TryRunAhead checks and adds to.
  Time run_deadline_ = 0;
  std::uint64_t run_budget_ = 0;
  std::uint64_t run_fired_ = 0;
  std::vector<Queue> queues_;  // [0] = home/serial; [1..workers_] = partitions
  ScheduleController* controller_ = nullptr;
  Duration perturb_window_us_ = 0;
  // Scratch buffers for FireControlled (avoid per-dispatch allocation).
  std::vector<Entry> cand_scratch_;
  std::vector<SchedCandidate> eligible_scratch_;
  std::vector<std::size_t> eligible_idx_scratch_;

  // ---- Parallel state ----
  int workers_ = 1;
  Duration lookahead_ = 0;
  bool parallel_phase_ = false;  // a window is executing right now
  Time horizon_ = 0;
  std::vector<std::thread> pool_;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;   // coordinator -> workers: new window
  std::condition_variable done_cv_;   // workers -> coordinator: window done
  std::uint64_t epoch_ = 0;
  int pending_workers_ = 0;
  bool shutdown_ = false;
};

}  // namespace msim

#endif  // SRC_SIM_SIMULATOR_H_
