// E14 — §10: "in a network with a larger number of sites sharing pages than
// ours, invalidations may become expensive."
//
// N-1 sites hold read copies of a hot page; one site then writes it. The
// clock site must invalidate every other reader sequentially point-to-point
// (no multicast in Locus, §7.1 caveat 2) before the write is granted, so
// write latency grows linearly in the reader count.
//
// The sweep is the first seven site counts of the experiment harness's
// `scalematrix` preset (src/exp/spec.cc) without its frame-loss axis;
// `examples/experiment_runner scalematrix` runs the whole matrix.
#include <cstdio>
#include <iostream>

#include "src/exp/runner.h"
#include "src/trace/table.h"

int main() {
  mexp::ExperimentSpec spec = *mexp::Preset("scalematrix");
  spec.sites.resize(7);  // 2..12, the paper-sized networks
  spec.loss = {0.0};

  mexp::ExperimentReport report = mexp::ExperimentRunner().Run(spec);

  std::printf("E14 — invalidation cost vs number of reader sites\n");
  std::printf("(one writer; N-1 sites hold read copies of the hot page)\n\n");
  mtrace::TextTable t({"sites", "readers invalidated", "mean write latency (ms)",
                       "invalidations/round", "completed"});
  bool all_completed = true;
  for (const mexp::PointResult& pt : report.points) {
    const bool completed = pt.metrics.at("completed").Mean() == 1.0;
    all_completed = all_completed && completed;
    t.AddRow({mtrace::TextTable::Int(pt.params.sites),
              mtrace::TextTable::Int(pt.params.sites - 1),
              mtrace::TextTable::Num(pt.metrics.at("mean_write_latency_ms").Mean(), 1),
              mtrace::TextTable::Num(pt.metrics.at("invalidations_per_round").Mean(), 1),
              completed ? "yes" : "NO"});
  }
  t.Print(std::cout);
  std::printf("\nexpected shape: latency linear in the reader count (sequential\n"
              "point-to-point invalidations with acknowledgements)\n");
  return all_completed ? 0 : 1;
}
