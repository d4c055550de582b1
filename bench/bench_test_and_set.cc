// E10 — §7.2's test&set discussion: a lock word guards data on the same
// page; the lock holder writes the data while a remote tester spins on
// test&set (which needs a writable copy), so holder and tester thrash the
// page. The paper: "the use of Delta > 0 can be helpful to the writer in
// this situation", and overall "we recommend that the test&set instruction
// not be used because of its performance".
#include <cstdio>
#include <iostream>

#include "src/trace/table.h"
#include "src/workload/spinlock.h"

namespace {

struct Out {
  double sections_per_sec = 0;
  std::uint64_t page_transfers = 0;
  bool correct = false;
  bool completed = false;
};

Out Run(msim::Duration window_us) {
  msysv::WorldOptions opts;
  opts.protocol.default_window_us = window_us;
  msysv::World world(2, opts);
  mwork::SpinlockParams prm;
  prm.sections = 30;
  auto result = mwork::LaunchSpinlock(world, prm);
  Out out;
  out.completed = world.RunUntil([&] { return result->completed; }, 600 * msim::kSecond);
  out.sections_per_sec = result->SectionsPerSecond();
  out.page_transfers = world.network().stats().large_packets;
  out.correct = result->final_counter ==
                static_cast<std::uint64_t>(2 * prm.sections * prm.writes_per_section);
  return out;
}

}  // namespace

int main() {
  std::printf("E10 — test&set spinlock with lock and data on one page (§7.2)\n\n");
  mtrace::TextTable t({"Delta (ms)", "critical sections/s", "page transfers",
                       "mutual exclusion held"});
  bool all_correct = true;
  for (int delta_ms : {0, 17, 33, 67, 100, 200, 400}) {
    Out o = Run(static_cast<msim::Duration>(delta_ms) * msim::kMillisecond);
    t.AddRow({mtrace::TextTable::Int(delta_ms), mtrace::TextTable::Num(o.sections_per_sec, 2),
              mtrace::TextTable::Int(static_cast<long long>(o.page_transfers)),
              o.correct ? "yes" : "NO"});
    all_correct = all_correct && o.correct;
  }
  t.Print(std::cout);
  std::printf("\npaper: the remote tester forces the page away from the lock holder, which\n"
              "then write-faults to touch its own data or clear the lock; Delta > 0 shelters\n"
              "the holder (fewer transfers per section, higher throughput).\n");
  return all_correct ? 0 : 1;
}
