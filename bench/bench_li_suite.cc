// E15 (extension) — the synthetic application suite the paper discusses in
// §7.0 (Li's matrix multiply, dot product, traveling salesman), run over
// both Mirage and the Li/Hudak baseline, with worker-count scaling.
//
// These workloads complement the worst case: they are read-mostly with
// partitioned writes, so they show the regime where DSM *wins* — read
// copies replicate the inputs and most computation runs at memory speed.
#include <cstdio>
#include <iostream>
#include <memory>

#include "src/baseline/li_engine.h"
#include "src/trace/table.h"
#include "src/workload/dotproduct.h"
#include "src/workload/matrix.h"
#include "src/workload/tsp.h"

namespace {

msysv::WorldOptions Backend(bool mirage_backend, msim::Duration window) {
  msysv::WorldOptions opts;
  if (mirage_backend) {
    opts.protocol.default_window_us = window;
  } else {
    opts.backend_factory = [](mos::Kernel* k, mirage::SegmentRegistry* reg,
                              mtrace::Tracer*) -> std::unique_ptr<mmem::DsmBackend> {
      return std::make_unique<mbase::LiEngine>(k, reg);
    };
  }
  return opts;
}

struct Row {
  double seconds = 0;
  std::uint64_t packets = 0;
  bool verified = false;
};

Row RunMatrix(const msysv::WorldOptions& opts, int workers) {
  msysv::World w(workers, opts);
  mwork::MatrixParams prm;
  prm.n = 32;  // rows-per-worker blocks stay page-aligned for 1/2/4 workers
  prm.madd_cost_us = 200;
  prm.workers = workers;
  auto r = mwork::LaunchMatrixMultiply(w, prm);
  w.RunUntil([&] { return r->completed; }, 900 * msim::kSecond);
  return Row{r->ElapsedSeconds(), w.network().stats().packets, r->verified};
}

Row RunDot(const msysv::WorldOptions& opts, int workers) {
  msysv::World w(workers, opts);
  mwork::DotProductParams prm;
  prm.length = 8192;
  prm.madd_cost_us = 100;
  prm.workers = workers;
  auto r = mwork::LaunchDotProduct(w, prm);
  w.RunUntil([&] { return r->completed; }, 900 * msim::kSecond);
  return Row{r->ElapsedSeconds(), w.network().stats().packets, r->verified};
}

Row RunTsp(const msysv::WorldOptions& opts, int workers) {
  msysv::World w(workers, opts);
  mwork::TspParams prm;
  prm.cities = 9;
  prm.node_cost_us = 40;
  prm.workers = workers;
  auto r = mwork::LaunchTsp(w, prm);
  w.RunUntil([&] { return r->completed; }, 900 * msim::kSecond);
  return Row{r->ElapsedSeconds(), w.network().stats().packets, r->verified};
}

}  // namespace

int main() {
  std::printf("E15 — Li's synthetic suite over Mirage and the Li/Hudak baseline\n\n");

  mtrace::TextTable t({"application", "protocol", "workers", "time (s)", "messages",
                       "verified"});
  struct App {
    const char* name;
    Row (*run)(const msysv::WorldOptions&, int);
  };
  const App apps[] = {
      {"matrix multiply 32x32", RunMatrix},
      {"dot product 8192", RunDot},
      {"tsp 9 cities", RunTsp},
  };
  for (const App& app : apps) {
    for (int workers : {1, 2, 4}) {
      Row m = app.run(Backend(true, 33 * msim::kMillisecond), workers);
      t.AddRow({app.name, "Mirage d=33ms", mtrace::TextTable::Int(workers),
                mtrace::TextTable::Num(m.seconds, 3),
                mtrace::TextTable::Int(static_cast<long long>(m.packets)),
                m.verified ? "yes" : "NO"});
    }
    // Extension: the library services independent pages concurrently
    // (strictly ordered per page). The paper's library is fully serial.
    msysv::WorldOptions par = Backend(true, 33 * msim::kMillisecond);
    par.protocol.parallel_page_ops = true;
    Row mp = app.run(par, 4);
    t.AddRow({app.name, "Mirage parallel-lib", "4", mtrace::TextTable::Num(mp.seconds, 3),
              mtrace::TextTable::Int(static_cast<long long>(mp.packets)),
              mp.verified ? "yes" : "NO"});
    Row li = app.run(Backend(false, 0), 2);
    t.AddRow({app.name, "Li/Hudak", "2", mtrace::TextTable::Num(li.seconds, 3),
              mtrace::TextTable::Int(static_cast<long long>(li.packets)),
              li.verified ? "yes" : "NO"});
  }
  t.Print(std::cout);
  std::printf(
      "\nexpected shape: matrix multiply (compute-heavy, page-aligned partitions) gains\n"
      "from added workers; dot product at this size is communication-bound (input\n"
      "replication and lazy-remap costs swamp the 100 us multiply-adds), so its time is\n"
      "flat-to-worse with workers — the data-size sensitivity the paper calls out in\n"
      "§7.0; TSP sits between (read-mostly matrix + one hot incumbent word). Mirage and\n"
      "the baseline are close throughout because read-mostly sharing rarely invokes the\n"
      "window at all.\n");
  return 0;
}
