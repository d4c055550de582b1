// E12 — Mirage vs. a Li/Hudak-style centralized-manager DSM (Appendix I)
// on identical substrate and cost model.
//
// The baseline has no window Delta, no read batching, and no Mirage
// optimizations; Mirage's Delta shelters a page holder under contention,
// which is precisely where the two systems diverge.
#include <cstdio>
#include <iostream>
#include <map>
#include <string>

#include "src/exp/run.h"
#include "src/trace/table.h"

namespace {

// One table row: ping-pong (40 rounds) and read-writers on two sites, over
// the Li/Hudak protocol or over Mirage at window `delta_ms`.
void AddRow(mtrace::TextTable& t, const std::string& label, bool li, int delta_ms) {
  mexp::RunConfig cfg;
  cfg.baseline = li;
  cfg.delta_ms = delta_ms;
  cfg.workload = "pingpong";
  cfg.rounds = 40;
  const std::map<std::string, double> pp = mexp::ExecuteRun(cfg).metrics;
  cfg.workload = "readwriters";
  const std::map<std::string, double> rw = mexp::ExecuteRun(cfg).metrics;
  t.AddRow({label, mtrace::TextTable::Num(pp.at("throughput"), 2),
            mtrace::TextTable::Int(static_cast<long long>(pp.at("net_packets"))),
            mtrace::TextTable::Num(rw.at("throughput"), 0)});
}

}  // namespace

int main() {
  std::printf("E12 — Mirage vs Li/Hudak centralized-manager baseline\n\n");

  mtrace::TextTable t({"protocol", "ping-pong cycles/s", "ping-pong msgs", "read-writers ops/s"});
  AddRow(t, "Li/Hudak baseline", true, 0);
  for (int delta_ms : {0, 33, 100, 300}) {
    AddRow(t, "Mirage, Delta=" + std::to_string(delta_ms) + "ms", false, delta_ms);
  }
  t.Print(std::cout);
  std::printf(
      "\nexpected shape: comparable on the latency-bound ping-pong (both protocols move\n"
      "one page per half-cycle), Mirage ahead on contended read-writers once Delta gives\n"
      "the holder a useful possession window.\n");
  return 0;
}
