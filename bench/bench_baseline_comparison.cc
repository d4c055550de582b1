// E12 — Mirage vs. a Li/Hudak-style centralized-manager DSM (Appendix I)
// on identical substrate and cost model.
//
// The baseline has no window Delta, no read batching, and no Mirage
// optimizations; Mirage's Delta shelters a page holder under contention,
// which is precisely where the two systems diverge.
#include <cstdio>
#include <iostream>
#include <memory>

#include "src/baseline/li_engine.h"
#include "src/trace/table.h"
#include "src/workload/pingpong.h"
#include "src/workload/readwriters.h"

namespace {

msysv::WorldOptions BaselineOptions() {
  msysv::WorldOptions opts;
  opts.backend_factory = [](mos::Kernel* k, mirage::SegmentRegistry* reg,
                            mtrace::Tracer*) -> std::unique_ptr<mmem::DsmBackend> {
    return std::make_unique<mbase::LiEngine>(k, reg);
  };
  return opts;
}

struct Row {
  double pingpong_cps = 0;
  double readwriters_ops = 0;
  std::uint64_t packets = 0;
};

Row RunSuite(const msysv::WorldOptions& base_opts) {
  Row row;
  {
    msysv::World world(2, base_opts);
    mwork::PingPongParams prm;
    prm.rounds = 40;
    auto r = mwork::LaunchPingPong(world, prm);
    world.RunUntil([&] { return r->completed(); }, 600 * msim::kSecond);
    row.pingpong_cps = r->CyclesPerSecond();
    row.packets = world.network().stats().packets;
  }
  {
    msysv::World world(2, base_opts);
    mwork::ReadWritersParams prm;
    prm.iterations = 50000;
    auto r = mwork::LaunchReadWriters(world, prm);
    world.RunUntil([&] { return r->completed(); }, 600 * msim::kSecond);
    row.readwriters_ops = r->OpsPerSecond();
  }
  return row;
}

}  // namespace

int main() {
  std::printf("E12 — Mirage vs Li/Hudak centralized-manager baseline\n\n");

  mtrace::TextTable t({"protocol", "ping-pong cycles/s", "ping-pong msgs", "read-writers ops/s"});

  Row li = RunSuite(BaselineOptions());
  t.AddRow({"Li/Hudak baseline", mtrace::TextTable::Num(li.pingpong_cps, 2),
            mtrace::TextTable::Int(static_cast<long long>(li.packets)),
            mtrace::TextTable::Num(li.readwriters_ops, 0)});

  for (int delta_ms : {0, 33, 100, 300}) {
    msysv::WorldOptions opts;
    opts.protocol.default_window_us = static_cast<msim::Duration>(delta_ms) * msim::kMillisecond;
    Row m = RunSuite(opts);
    t.AddRow({"Mirage, Delta=" + std::to_string(delta_ms) + "ms",
              mtrace::TextTable::Num(m.pingpong_cps, 2),
              mtrace::TextTable::Int(static_cast<long long>(m.packets)),
              mtrace::TextTable::Num(m.readwriters_ops, 0)});
  }
  t.Print(std::cout);
  std::printf(
      "\nexpected shape: comparable on the latency-bound ping-pong (both protocols move\n"
      "one page per half-cycle), Mirage ahead on contended read-writers once Delta gives\n"
      "the holder a useful possession window.\n");
  return 0;
}
