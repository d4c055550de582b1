// E10 — §7.2's test&set discussion: a lock word guards data on the same
// page; the lock holder writes the data while a remote tester spins on
// test&set (which needs a writable copy), so holder and tester thrash the
// page. The paper: "the use of Delta > 0 can be helpful to the writer in
// this situation", and overall "we recommend that the test&set instruction
// not be used because of its performance".
#include <cstdio>
#include <iostream>
#include <map>
#include <string>

#include "src/exp/run.h"
#include "src/trace/table.h"

int main() {
  std::printf("E10 — test&set spinlock with lock and data on one page (§7.2)\n\n");
  mtrace::TextTable t({"Delta (ms)", "critical sections/s", "page transfers",
                       "mutual exclusion held"});
  bool all_correct = true;
  mexp::RunConfig cfg;
  cfg.workload = "spinlock";
  for (int delta_ms : {0, 17, 33, 67, 100, 200, 400}) {
    cfg.delta_ms = delta_ms;
    const std::map<std::string, double> m = mexp::ExecuteRun(cfg).metrics;
    const bool correct = m.at("mutex_held") == 1.0;
    t.AddRow({mtrace::TextTable::Int(delta_ms), mtrace::TextTable::Num(m.at("throughput"), 2),
              mtrace::TextTable::Int(static_cast<long long>(m.at("net_large_packets"))),
              correct ? "yes" : "NO"});
    all_correct = all_correct && correct;
  }
  t.Print(std::cout);
  std::printf("\npaper: the remote tester forces the page away from the lock holder, which\n"
              "then write-faults to touch its own data or clear the lock; Delta > 0 shelters\n"
              "the holder (fewer transfers per section, higher throughput).\n");
  return all_correct ? 0 : 1;
}
