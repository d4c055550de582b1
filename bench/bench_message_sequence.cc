// E5 — Figure 6: the exact sequence of protocol messages for one cycle of
// the worst-case application, and the per-cycle message accounting of §7.2
// (paper: 9 messages per cycle — 6 short, 3 page-carrying — giving the
// ~109 ms/cycle raw bound).
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "src/mirage/protocol.h"
#include "src/trace/table.h"
#include "src/workload/pingpong.h"

int main() {
  msysv::WorldOptions opts;
  opts.enable_trace = true;
  opts.protocol.default_window_us = 0;
  msysv::World world(2, opts);
  mwork::PingPongParams prm;
  prm.rounds = 6;
  prm.use_yield = true;
  auto result = mwork::LaunchPingPong(world, prm);
  // Every delivered message, with its kind and whether it carries a page:
  // page-carrying messages are the ones the cost model charges as large.
  struct Delivery {
    msim::Time time;
    const char* kind;
    bool large;
  };
  std::vector<Delivery> deliveries;
  world.network().AddObserver([&deliveries, &world](const mnet::Packet& pkt, msim::Time t) {
    deliveries.push_back({t, mirage::MsgKindName(static_cast<mirage::MsgKind>(pkt.type)),
                          world.costs().IsLarge(pkt.size_bytes)});
  });
  world.RunUntil([&] { return result->completed(); }, 60 * msim::kSecond);

  // Count messages over the steady-state cycles (skip the warm-up cycle).
  std::map<std::string, int> by_kind;
  int shorts = 0;
  int larges = 0;
  msim::Time steady_start = result->start_time +
                            (result->end_time - result->start_time) / prm.rounds;
  for (const Delivery& d : deliveries) {
    if (d.time >= steady_start) {
      ++by_kind[d.kind];
      ++(d.large ? larges : shorts);
    }
  }
  double cycles = prm.rounds - 1;

  std::printf("E5 — message sequence for one steady-state worst-case cycle\n\n");
  std::printf("trace of one cycle (cycle 3 of %d):\n\n", prm.rounds);
  msim::Time c3_start = result->start_time +
                        2 * (result->end_time - result->start_time) / prm.rounds;
  msim::Time c3_end = result->start_time +
                      3 * (result->end_time - result->start_time) / prm.rounds;
  for (const auto& e : world.tracer().events()) {
    if (e.time >= c3_start && e.time <= c3_end &&
        (e.category == "msg" || e.category == "fault" || e.category == "upgrade" ||
         e.category == "downgrade" || e.category == "invalidate")) {
      std::printf("  %9.3f ms  site %d  %-11s %s\n", msim::ToMilliseconds(e.time), e.site,
                  e.category.c_str(), e.detail.c_str());
    }
  }

  std::printf("\nper-cycle message accounting (average over %d steady cycles):\n\n",
              static_cast<int>(cycles));
  mtrace::TextTable table({"message kind", "per cycle"});
  for (const auto& [kind, count] : by_kind) {
    table.AddRow({kind, mtrace::TextTable::Num(count / cycles, 1)});
  }
  table.AddRow({"TOTAL", mtrace::TextTable::Num((shorts + larges) / cycles, 1)});
  table.AddRow({"short", mtrace::TextTable::Num(shorts / cycles, 1)});
  table.AddRow({"page-carrying", mtrace::TextTable::Num(larges / cycles, 1)});
  table.Print(std::cout);
  std::printf("\npaper: 9 messages per cycle — 6 short + 3 large (1024-byte) responses\n");
  std::printf("cycle time: %.1f ms (paper bound: ~109 ms/cycle -> ~9 cycles/s)\n",
              1000.0 / result->CyclesPerSecond());
  return 0;
}
