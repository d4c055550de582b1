// E8/E11 — Figure 8 "Two Conflicting Read-Writers" and the §8 tuning
// guidance: throughput of the representative application as a function of
// the time window Delta; separately, the §7.3 system-throughput effect
// (a colocated compute process gets more cycles as Delta grows).
//
// Paper shape to reproduce:
//  * a steep "contention" side at small Delta (page conflicts dominate);
//  * a broad plateau of good throughput (the paper: 120 <= Delta <= 600 ms,
//    peaking around 115,000 read-write instructions/second);
//  * a gentle "retention" side beyond the peak (a process holds the page
//    longer than it needs);
//  * on the same site, background (non-DSM) throughput *improves* as Delta
//    grows — err on the retention side for overall system throughput.
//
// Both sweeps are the experiment harness's `fig8` and `amelioration` presets
// (src/exp/spec.cc), executed on all available cores and merged in spec
// order; `examples/experiment_runner fig8` runs the same spec from the CLI.
#include <cstdio>
#include <iostream>

#include "src/exp/runner.h"
#include "src/trace/table.h"

int main() {
  mexp::ExperimentRunner runner;

  std::printf("Figure 8: two conflicting read-writers, throughput vs Delta\n\n");
  mexp::ExperimentReport fig8_report = runner.Run(*mexp::Preset("fig8"));
  mtrace::TextTable fig8({"Delta (ms)", "read-write ops/s"});
  for (const mexp::PointResult& pt : fig8_report.points) {
    fig8.AddRow({mtrace::TextTable::Int(pt.params.delta_ms),
                 mtrace::TextTable::Num(pt.metrics.at("throughput").Mean(), 0)});
  }
  fig8.Print(std::cout);
  std::printf("\npaper: steep contention side below ~120 ms, plateau to ~600 ms "
              "(peak ~115k ops/s),\ngentle retention falloff beyond the peak\n\n");

  std::printf("§7.3/§8: thrashing amelioration — background compute process at site 0\n");
  std::printf("(application throughput is traded for overall system throughput)\n\n");
  mexp::ExperimentReport amel_report = runner.Run(*mexp::Preset("amelioration"));
  mtrace::TextTable amel({"Delta (ms)", "app ops/s", "background units/s"});
  for (const mexp::PointResult& pt : amel_report.points) {
    amel.AddRow({mtrace::TextTable::Int(pt.params.delta_ms),
                 mtrace::TextTable::Num(pt.metrics.at("throughput").Mean(), 0),
                 mtrace::TextTable::Num(pt.metrics.at("background_units_per_s").Mean(), 1)});
  }
  amel.Print(std::cout);
  std::printf("\npaper: increasing Delta reduces the thrashing application's demand on the\n"
              "system; other processes get more cycles (the retention side is the safe side)\n");
  return 0;
}
