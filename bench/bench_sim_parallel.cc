// Conservative parallel-execution benchmark (DESIGN.md §12).
//
// Measures the wall-clock speedup of `Simulator::SetWorkers(n)` over the
// serial dispatcher on three fixed worlds, at n in {1, 2, 4}:
//
//  - parallel_fig8_w{2,4}: the 2-site conflicting read-writers world
//    (the paper's Figure 8 shape). Two sites sharing one hot page is the
//    parallel mode's worst case — every window is dominated by cross-site
//    traffic — so the recorded ratio tracks the overhead floor: windowed
//    fork-join must never make the smallest world pathologically slower.
//  - parallel_multiseg_w{2,4}: a scalematrix-style world — 32 sites, 16
//    independent read-writers pairs, pair i on sites 2i and 2i+1 and its
//    own segment. The partition map deals sites out in contiguous blocks,
//    so both sites of a pair share a partition: a pair's page transfers
//    still run as coordinator serial steps, but every window has work on
//    every partition.
//  - parallel_multiseg_local_w{2,4}: the same 32-site world with both
//    processes of each pair colocated on one site, so no page ever leaves
//    its home — the embarrassingly-parallel upper bound for the windowed
//    core (every event executes inside a multi-partition window).
//
// Each timed run lasts tens of milliseconds, so single runs scatter on a
// shared host. The bench therefore runs serial, 2 workers and 4 workers back
// to back in kRounds rounds, rotating which goes first, and a row's speedup
// is the median of its per-round ratios (serial wall / parallel wall of the
// same round). The ratio is of the identical deterministic run, so it does
// not depend on absolute host speed.
//
// Each row also prints the parallel run's Simulator::ParallelStats —
// windows, windows with one active partition, coordinator serial steps,
// and the coordinator's host milliseconds at the window barrier and in the
// merge (medians over the rounds) — and the JSON rows carry them, so a slow
// row can be diagnosed without instrumenting the simulator.
//
// Exit 1 when a gated row's median is below its floor, when a parallel row
// ran no windows (its workers never engaged), or when any run's fingerprint
// (final virtual time and processed-event count) differs from the first
// serial run's — a benchmark that got a different simulation would be
// measuring a bug. A w-worker row is gated only on a host with at least w
// cores: with fewer, the OS time-slices the worker threads and the ratio
// measures the scheduler, not the simulator. Such rows are still recorded,
// and the JSON carries "host_cores" so a reader can interpret the ratios.
//
// Usage:
//   bench_sim_parallel                  human-readable table
//   bench_sim_parallel --json[=FILE]    also write JSON (default
//                                       BENCH_sim_parallel.json)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/exp/json.h"
#include "src/sim/time.h"
#include "src/sysv/world.h"
#include "src/workload/readwriters.h"

namespace {

using WallClock = std::chrono::steady_clock;

constexpr int kRounds = 10;
constexpr int kWorkerCounts[] = {1, 2, 4};

struct Scenario {
  const char* name;
  int sites;
  int pairs;
  int iterations;
  bool colocate;  // both processes of a pair on one site
  // Floors on the median speedup at 2 and 4 workers; 0 records the row
  // without gating it.
  double floor_w2;
  double floor_w4;
};

// fig8 is an overhead tracker: 2 sites on one page cannot speed up. Each
// multiseg page transfer runs as a coordinator serial step, so its floors
// ask only that the windowed core cost at most a quarter of serial time.
// multiseg_local keeps every page home; its floors are 1.2x and the 1.5x
// 4-worker target, less a quarter for host noise.
constexpr Scenario kScenarios[] = {
    {"fig8", 2, 1, 60000, false, 0.0, 0.0},
    {"multiseg", 32, 16, 20000, false, 0.75, 0.75},
    {"multiseg_local", 32, 32, 20000, true, 0.9, 1.125},
};

// One completed world run: the wall-clock cost plus the determinism
// fingerprint that must match the serial run bit-for-bit, and what the
// parallel loop did (Simulator::ParallelStats; all zero when serial).
struct RunSample {
  double wall_seconds = 0.0;
  msim::Time sim_now = 0;
  std::uint64_t sim_events = 0;
  msim::Simulator::ParallelStats stats;
};

RunSample RunScenario(const Scenario& sc, int workers) {
  msysv::WorldOptions opts;
  opts.parallel_ok = true;
  opts.sim_workers = workers;
  msysv::World world(sc.sites, opts);
  std::vector<std::shared_ptr<mwork::ReadWritersResult>> results;
  auto t0 = WallClock::now();
  for (int p = 0; p < sc.pairs; ++p) {
    mwork::ReadWritersParams prm;
    if (sc.colocate) {
      prm.site_a = p % sc.sites;
      prm.site_b = prm.site_a;
    } else {
      prm.site_a = 2 * p;
      prm.site_b = 2 * p + 1;
    }
    prm.key = 500 + static_cast<std::uint64_t>(p);
    prm.iterations = sc.iterations;
    results.push_back(mwork::LaunchReadWriters(world, prm));
  }
  world.RunUntil(
      [&] {
        for (const auto& r : results) {
          if (!r->completed()) {
            return false;
          }
        }
        return true;
      },
      600 * msim::kSecond);
  RunSample s;
  s.wall_seconds = std::chrono::duration<double>(WallClock::now() - t0).count();
  s.sim_now = world.sim().Now();
  s.sim_events = world.sim().ProcessedEvents();
  s.stats = world.sim().parallel_stats();
  for (const auto& r : results) {
    if (!r->completed()) {
      std::fprintf(stderr, "bench_sim_parallel: %s did not complete at workers=%d\n", sc.name,
                   workers);
      std::exit(1);
    }
  }
  return s;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct BenchResult {
  std::string name;
  double speedup = 0.0;  // median per-round serial wall / parallel wall
  std::vector<double> ratios;
  double floor = 0.0;
  bool gated = false;
  double wall_seconds = 0.0;      // median parallel run
  double ref_wall_seconds = 0.0;  // median serial run of the same world
  std::uint64_t sim_events = 0;
  msim::Simulator::ParallelStats stats;  // of the parallel runs; host times are medians
};

mexp::Json ToJson(const std::vector<BenchResult>& results) {
  mexp::Json root = mexp::Json::Object();
  root.Set("schema", "mirage-bench-sim-parallel-v2");
  root.Set("host_cores", static_cast<double>(std::thread::hardware_concurrency()));
  root.Set("rounds", kRounds);
  mexp::Json arr = mexp::Json::Array();
  for (const BenchResult& r : results) {
    mexp::Json j = mexp::Json::Object();
    j.Set("name", r.name);
    j.Set("speedup", r.speedup);
    mexp::Json ratios = mexp::Json::Array();
    for (double x : r.ratios) {
      ratios.Push(x);
    }
    j.Set("ratios", std::move(ratios));
    j.Set("floor", r.floor);
    j.Set("gated", r.gated);
    j.Set("events_per_sec", static_cast<double>(r.sim_events) / r.wall_seconds);
    j.Set("ref_events_per_sec", static_cast<double>(r.sim_events) / r.ref_wall_seconds);
    j.Set("wall_seconds", r.wall_seconds);
    j.Set("sim_events", static_cast<double>(r.sim_events));
    j.Set("windows", static_cast<double>(r.stats.windows));
    j.Set("single_partition_windows", static_cast<double>(r.stats.single_partition_windows));
    j.Set("serial_steps", static_cast<double>(r.stats.serial_steps));
    j.Set("window_events", static_cast<double>(r.stats.window_events));
    j.Set("barrier_wait_s", r.stats.barrier_wait_s);
    j.Set("merge_s", r.stats.merge_s);
    arr.Push(std::move(j));
  }
  root.Set("benchmarks", std::move(arr));
  return root;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string json_path = "BENCH_sim_parallel.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "bench_sim_parallel: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }

  const unsigned host_cores = std::thread::hardware_concurrency();
  std::vector<BenchResult> results;
  int failures = 0;
  std::printf("%-26s %10s %12s %8s %13s %6s %8s %7s %8s %9s %9s\n", "benchmark", "wall (ms)",
              "events/s", "speedup", "range", "floor", "windows", "single", "serial",
              "wait (ms)", "merge (ms)");
  for (const Scenario& sc : kScenarios) {
    // runs[k][r]: worker count kWorkerCounts[k] in round r.
    std::vector<RunSample> runs[3];
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < 3; ++i) {
        const int k = (r + i) % 3;
        runs[k].push_back(RunScenario(sc, kWorkerCounts[k]));
      }
    }
    const RunSample& ref = runs[0][0];
    for (int k = 0; k < 3; ++k) {
      for (const RunSample& s : runs[k]) {
        if (s.sim_now != ref.sim_now || s.sim_events != ref.sim_events) {
          std::fprintf(stderr,
                       "bench_sim_parallel: %s diverged from serial at workers=%d "
                       "(now %lld vs %lld, events %llu vs %llu)\n",
                       sc.name, kWorkerCounts[k], static_cast<long long>(s.sim_now),
                       static_cast<long long>(ref.sim_now),
                       static_cast<unsigned long long>(s.sim_events),
                       static_cast<unsigned long long>(ref.sim_events));
          return 1;
        }
      }
    }
    std::vector<double> serial_walls;
    for (const RunSample& s : runs[0]) {
      serial_walls.push_back(s.wall_seconds);
    }
    for (int k = 1; k < 3; ++k) {
      const int w = kWorkerCounts[k];
      BenchResult r;
      r.name = std::string("parallel_") + sc.name + "_w" + std::to_string(w);
      std::vector<double> walls;
      std::vector<double> waits;
      std::vector<double> merges;
      for (int i = 0; i < kRounds; ++i) {
        const RunSample& s = runs[k][i];
        r.ratios.push_back(runs[0][i].wall_seconds / s.wall_seconds);
        walls.push_back(s.wall_seconds);
        waits.push_back(s.stats.barrier_wait_s);
        merges.push_back(s.stats.merge_s);
      }
      r.speedup = Median(r.ratios);
      r.floor = w == 2 ? sc.floor_w2 : sc.floor_w4;
      r.gated = r.floor > 0 && host_cores >= static_cast<unsigned>(w);
      if (r.floor > 0 && !r.gated) {
        std::printf("note: %s ungated (host has %u core(s) < %d workers)\n", r.name.c_str(),
                    host_cores, w);
      }
      r.wall_seconds = Median(walls);
      r.ref_wall_seconds = Median(serial_walls);
      r.sim_events = ref.sim_events;
      r.stats = runs[k][0].stats;
      r.stats.barrier_wait_s = Median(waits);
      r.stats.merge_s = Median(merges);
      const auto [lo, hi] = std::minmax_element(r.ratios.begin(), r.ratios.end());
      std::printf("%-26s %10.2f %12.0f %7.2fx %5.2f-%5.2fx %6.3f %8llu %7llu %8llu %9.2f %9.2f\n",
                  r.name.c_str(), r.wall_seconds * 1e3,
                  static_cast<double>(r.sim_events) / r.wall_seconds, r.speedup, *lo, *hi,
                  r.floor, static_cast<unsigned long long>(r.stats.windows),
                  static_cast<unsigned long long>(r.stats.single_partition_windows),
                  static_cast<unsigned long long>(r.stats.serial_steps),
                  r.stats.barrier_wait_s * 1e3, r.stats.merge_s * 1e3);
      if (r.stats.windows == 0) {
        std::fprintf(stderr, "bench_sim_parallel: %s ran no windows (workers never engaged)\n",
                     r.name.c_str());
        ++failures;
      }
      if (r.gated && r.speedup < r.floor) {
        std::fprintf(stderr, "REGRESSION %s: median speedup %.2fx < floor %.3fx\n",
                     r.name.c_str(), r.speedup, r.floor);
        ++failures;
      }
      results.push_back(std::move(r));
    }
  }

  if (json) {
    std::ofstream out(json_path);
    out << ToJson(results).ToString() << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (failures > 0) {
    return 1;
  }
  std::printf("gate passed: every gated median at or above its floor (%d rounds, %u cores)\n",
              kRounds, host_cores);
  return 0;
}
