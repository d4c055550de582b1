// The experiment CLI: one run or a declarative parameter sweep, executed on
// a worker-thread pool, with streaming statistics and machine-readable
// output. Every run goes through mexp::ExecuteRun, so a one-run report and
// a sweep point with the same parameters measure the same simulation.
//
// Usage:
//   experiment_runner [preset | --spec=FILE.json] [options]
//
// Presets (src/exp/spec.cc):
//   fig8         the paper's Figure 8 Delta sweep (two conflicting
//                read-writers; matches bench_time_window's numbers)
//   amelioration §7.3/§8 background-throughput sweep (bench_time_window's
//                second table)
//   scalematrix  sites x frame-loss invalidation-scaling matrix
//                (bench_scalability's sweep, widened with a loss axis)
//   availability library-site failover sweep: ping-pong with the segment
//                homed on a pure-controller site (--lib=2), with and
//                without crashing it mid-run, across site counts and
//                replication degrees k=1..3 — the fraction of runs that
//                keep completing measures how well segments survive
//                controller loss, pages_lost measures what a data-holder
//                crash destroys at each k, and the fault-free plan prices
//                the quorum-write latency cost of k
//   kvstore      open-loop KV serving over dsmlib's DistHashMap: zipf
//                skew x get/set mix x Delta x data replicas — hot-key
//                throughput degrades as zipf-s rises and kv_replicas=2
//                recovers it for read-heavy mixes
//
// Axis/override options (comma-separated lists make a grid):
//   --workload=W             readwriters|pingpong|spinlock|scalability|matrix|dot|tsp|kvstore
//   --sites=2,4,8            site-count axis
//   --delta=0,120,600        time-window axis (ms)
//   --quantum=6              scheduling-quantum axis (ticks)
//   --segbytes=512           segment-size axis (bytes)
//   --loss=0,0.02            frame-loss axis (probability; virtual circuits
//                            retransmit)
//   --replicas=1,2,3         page-replication-degree axis (1 = single copy)
//   --zipf=0,0.9,1.3         kvstore key-popularity-skew axis
//   --mix=0.5,0.95           kvstore get-fraction axis
//   --kvreplicas=1,2         kvstore data-replication axis (table copies)
//   --cost=ethernet1989,rdma cost-model preset axis (network/CPU constants)
//   --keys=N --rate=R --kvops=N
//                            kvstore key space, per-site arrival rate (/s),
//                            and generated ops per site
//   --reps=5                 repetitions per grid point
//   --offsets=0,170,410      per-repetition start phases (ms)
//   --seed=N                 spec seed (per-run seeds derive from it)
//   --iters=N --rounds=N     workload sizes
//   --no-yield               busy-wait instead of yield() in spin loops
//   --parallel-lib           concurrent library service of distinct pages
//   --li                     run over the Li/Hudak protocol, not Mirage
//   --lib=S                  pre-create the segment at site S (its library
//                            site) so a crash plan can target a pure
//                            controller (pingpong/readwriters)
//   --crash=S@T --pause=S@T1:T2 --cut=A-B@T1:T2
//                            add one fault plan (repeatable; times in ms)
//   --recover=T:SITE         revive a crashed site at T ms with amnesia
//                            (appends to the most recent fault plan, so
//                            place it after the --crash it undoes)
//   --max-time-s=600         per-run simulated-time cap
//
// Any fault plan enables the protocol recovery timeouts (request backoff,
// ack timeouts, op deadline). Specs from flags and from --spec files pass
// the same range checks (ExperimentSpec::Validate); a site named by --lib
// or a fault flag must be below the smallest --sites value.
//
// Execution and output:
//   --threads=N     worker threads (default: hardware concurrency). The
//                   report is byte-identical for every N. Independently,
//                   MIRAGE_SIM_WORKERS=K parallelizes eligible single runs
//                   inside the simulator (DESIGN.md #12) - also
//                   byte-identical for every K.
//   --out=FILE      write the JSON report (default: stdout)
//   --csv=FILE      also write the long-form CSV
//   --baseline=FILE diff against a stored JSON report; regressions beyond
//                   --tolerance (default 0.10) exit non-zero
//   --quiet         no stderr progress ticker
//   --report        for a spec that expands to exactly one run: print a
//                   text report (workload figures, per-site counters,
//                   fault-latency percentiles, a post-run invariant check
//                   scoped to live sites, circuit counters) instead of JSON
//   --trace         with --report, also print the protocol event trace
//
// Exit code: 2 for bad arguments. Otherwise 0, or 1 if a run failed (or, with
// --report, if the workload did not complete, e.g. EIDRM under faults).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/exp/report.h"
#include "src/trace/table.h"

namespace {

// Parses a comma-separated list of numbers (names, for T = std::string)
// into *out; false on an empty list or an empty item.
template <typename T>
bool ParseList(const std::string& arg, std::vector<T>* out) {
  std::vector<T> vals;
  std::stringstream ss(arg);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) {
      return false;
    }
    if constexpr (std::is_same_v<T, std::string>) {
      vals.push_back(item);
    } else if constexpr (std::is_integral_v<T>) {
      vals.push_back(static_cast<T>(std::strtoll(item.c_str(), nullptr, 10)));
    } else {
      vals.push_back(static_cast<T>(std::strtod(item.c_str(), nullptr)));
    }
  }
  if (vals.empty()) {
    return false;
  }
  *out = std::move(vals);
  return true;
}

// Reads and parses a JSON file; false, with a message, on failure.
bool ReadJsonFile(const std::string& path, const char* what, mexp::Json* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s '%s'\n", what, path.c_str());
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::string error;
  *out = mexp::Json::Parse(buf.str(), &error);
  if (!error.empty()) {
    std::fprintf(stderr, "%s parse error: %s\n", what, error.c_str());
    return false;
  }
  return true;
}

// Console summary: one row per grid point with the headline metrics.
void PrintSummary(const mexp::ExperimentReport& report) {
  mtrace::TextTable t({"point", "sites", "Delta (ms)", "loss", "repl", "faults", "metric",
                       "mean", "min", "max", "ci95"});
  int index = 0;
  for (const mexp::PointResult& pt : report.points) {
    // The headline metric: throughput when present, else the workload's
    // primary latency/elapsed figure.
    const char* headline = pt.metrics.count("throughput") != 0 ? "throughput"
                           : pt.metrics.count("mean_write_latency_ms") != 0
                               ? "mean_write_latency_ms"
                               : "elapsed_s";
    auto it = pt.metrics.find(headline);
    if (it == pt.metrics.end()) {
      continue;
    }
    const mexp::StatsAccumulator& acc = it->second;
    t.AddRow({mtrace::TextTable::Int(index++), mtrace::TextTable::Int(pt.params.sites),
              mtrace::TextTable::Int(static_cast<int>(pt.params.delta_ms)),
              mtrace::TextTable::Num(pt.params.loss, 3),
              mtrace::TextTable::Int(pt.params.replicas), pt.params.fault_plan, headline,
              mtrace::TextTable::Num(acc.Mean(), 1), mtrace::TextTable::Num(acc.Min(), 1),
              mtrace::TextTable::Num(acc.Max(), 1),
              mtrace::TextTable::Num(acc.Ci95HalfWidth(), 1)});
  }
  t.Print(std::cerr);
}

}  // namespace

int main(int argc, char** argv) {
  mexp::ExperimentSpec spec;
  int threads = 0;
  bool quiet = false;
  bool report_mode = false;
  bool trace = false;
  std::string out_path;
  std::string csv_path;
  std::string baseline_path;
  double tolerance = 0.10;
  int next_plan = 1;

  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    auto value = [&s]() { return s.substr(s.find('=') + 1); };
    bool ok = true;
    if (std::optional<mexp::ExperimentSpec> preset = mexp::Preset(s)) {
      spec = *preset;
    } else if (s.rfind("--spec=", 0) == 0) {
      mexp::Json j;
      std::string error;
      if (!ReadJsonFile(value(), "spec file", &j)) {
        return 2;
      }
      if (!mexp::ExperimentSpec::FromJson(j, &spec, &error)) {
        std::fprintf(stderr, "bad spec: %s\n", error.c_str());
        return 2;
      }
    } else if (s.rfind("--workload=", 0) == 0) {
      spec.workload = value();
    } else if (s.rfind("--sites=", 0) == 0) {
      ok = ParseList(value(), &spec.sites);
    } else if (s.rfind("--delta=", 0) == 0) {
      ok = ParseList(value(), &spec.delta_ms);
    } else if (s.rfind("--quantum=", 0) == 0) {
      ok = ParseList(value(), &spec.quantum_ticks);
    } else if (s.rfind("--segbytes=", 0) == 0) {
      ok = ParseList(value(), &spec.segment_bytes);
    } else if (s.rfind("--loss=", 0) == 0) {
      ok = ParseList(value(), &spec.loss);
    } else if (s.rfind("--replicas=", 0) == 0) {
      ok = ParseList(value(), &spec.replicas);
    } else if (s.rfind("--zipf=", 0) == 0) {
      ok = ParseList(value(), &spec.zipf_s);
    } else if (s.rfind("--mix=", 0) == 0) {
      ok = ParseList(value(), &spec.get_mix);
    } else if (s.rfind("--kvreplicas=", 0) == 0) {
      ok = ParseList(value(), &spec.kv_replicas);
    } else if (s.rfind("--cost=", 0) == 0) {
      ok = ParseList(value(), &spec.cost_presets);
    } else if (s.rfind("--keys=", 0) == 0) {
      spec.kv_keys = static_cast<std::uint32_t>(std::atol(value().c_str()));
    } else if (s.rfind("--rate=", 0) == 0) {
      spec.kv_arrival_per_s = std::atof(value().c_str());
    } else if (s.rfind("--kvops=", 0) == 0) {
      spec.kv_ops_per_site = static_cast<std::uint32_t>(std::atol(value().c_str()));
    } else if (s.rfind("--offsets=", 0) == 0) {
      ok = ParseList(value(), &spec.phase_offsets_ms);
    } else if (s.rfind("--reps=", 0) == 0) {
      spec.repetitions = std::atoi(value().c_str());
    } else if (s.rfind("--seed=", 0) == 0) {
      spec.seed = std::strtoull(value().c_str(), nullptr, 0);
    } else if (s.rfind("--iters=", 0) == 0) {
      spec.iterations = std::atoi(value().c_str());
    } else if (s.rfind("--rounds=", 0) == 0) {
      spec.rounds = std::atoi(value().c_str());
    } else if (s == "--no-yield") {
      spec.use_yield = false;
    } else if (s == "--parallel-lib") {
      spec.parallel_lib = true;
    } else if (s == "--li") {
      spec.baseline = true;
    } else if (s.rfind("--lib=", 0) == 0) {
      spec.library_site = std::atoi(value().c_str());
    } else if (s.rfind("--max-time-s=", 0) == 0) {
      spec.max_time_s = std::atol(value().c_str());
    } else if (s.rfind("--crash=", 0) == 0) {
      int site = 0;
      long t = 0;
      if (std::sscanf(s.c_str() + 8, "%d@%ld", &site, &t) != 2) {
        std::fprintf(stderr, "bad --crash, want S@Tms\n");
        return 2;
      }
      mexp::FaultPlanSpec fp;
      fp.name = "crash" + std::to_string(next_plan++);
      fp.plan.CrashAt(t * msim::kMillisecond, site);
      spec.fault_plans.push_back(std::move(fp));
    } else if (s.rfind("--recover=", 0) == 0) {
      long t = 0;
      int site = 0;
      if (std::sscanf(s.c_str() + 10, "%ld:%d", &t, &site) != 2) {
        std::fprintf(stderr, "bad --recover, want Tms:SITE\n");
        return 2;
      }
      if (spec.fault_plans.empty()) {
        std::fprintf(stderr, "--recover needs a preceding --crash plan to extend\n");
        return 2;
      }
      spec.fault_plans.back().plan.RecoverAt(t * msim::kMillisecond, site);
    } else if (s.rfind("--pause=", 0) == 0) {
      int site = 0;
      long t1 = 0, t2 = 0;
      if (std::sscanf(s.c_str() + 8, "%d@%ld:%ld", &site, &t1, &t2) != 3 || t2 < t1) {
        std::fprintf(stderr, "bad --pause, want S@T1:T2 ms\n");
        return 2;
      }
      mexp::FaultPlanSpec fp;
      fp.name = "pause" + std::to_string(next_plan++);
      fp.plan.PauseAt(t1 * msim::kMillisecond, site).ResumeAt(t2 * msim::kMillisecond, site);
      spec.fault_plans.push_back(std::move(fp));
    } else if (s.rfind("--cut=", 0) == 0) {
      int sa = 0, sb = 0;
      long t1 = 0, t2 = 0;
      if (std::sscanf(s.c_str() + 6, "%d-%d@%ld:%ld", &sa, &sb, &t1, &t2) != 4 || t2 < t1) {
        std::fprintf(stderr, "bad --cut, want A-B@T1:T2 ms\n");
        return 2;
      }
      mexp::FaultPlanSpec fp;
      fp.name = "cut" + std::to_string(next_plan++);
      fp.plan.PartitionAt(t1 * msim::kMillisecond, sa, sb)
          .HealAt(t2 * msim::kMillisecond, sa, sb);
      spec.fault_plans.push_back(std::move(fp));
    } else if (s.rfind("--threads=", 0) == 0) {
      threads = std::atoi(value().c_str());
    } else if (s.rfind("--out=", 0) == 0) {
      out_path = value();
    } else if (s.rfind("--csv=", 0) == 0) {
      csv_path = value();
    } else if (s.rfind("--baseline=", 0) == 0) {
      baseline_path = value();
    } else if (s.rfind("--tolerance=", 0) == 0) {
      tolerance = std::atof(value().c_str());
    } else if (s == "--quiet") {
      quiet = true;
    } else if (s == "--report") {
      report_mode = true;
    } else if (s == "--trace") {
      trace = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s' (see the header comment for usage)\n",
                   s.c_str());
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "bad list in '%s'\n", s.c_str());
      return 2;
    }
  }
  if (std::string error; !spec.Validate(&error)) {
    std::fprintf(stderr, "bad spec: %s\n", error.c_str());
    return 2;
  }
  if (trace && !report_mode) {
    std::fprintf(stderr, "--trace prints with --report only\n");
    return 2;
  }
  if (report_mode) {
    std::vector<mexp::RunConfig> runs = spec.Expand();
    if (runs.size() != 1) {
      std::fprintf(stderr, "--report needs a spec that expands to one run, not %zu\n",
                   runs.size());
      return 2;
    }
    if (!out_path.empty() || !csv_path.empty() || !baseline_path.empty()) {
      std::fprintf(stderr, "--report prints text only (no --out, --csv or --baseline)\n");
      return 2;
    }
    mexp::RunConfig& cfg = runs.front();
    cfg.trace = trace;
    mexp::RunResult result =
        mexp::ExecuteRun(cfg, [&cfg](msysv::World& world, const mexp::RunResult& r) {
          mexp::PrintRunReport(world, cfg, r, std::cout);
        });
    if (!result.ok) {
      std::fprintf(stderr, "run failed: %s\n", result.error.c_str());
      return 1;
    }
    return result.metrics.at("completed") == 1.0 ? 0 : 1;
  }

  mexp::ExperimentRunner runner(threads);
  int total_runs = spec.PointCount() * spec.repetitions;
  if (!quiet) {
    std::fprintf(stderr, "%s: %d points x %d reps = %d runs on %d threads\n",
                 spec.name.c_str(), spec.PointCount(), spec.repetitions, total_runs,
                 runner.threads());
  }
  std::mutex progress_mu;
  auto progress = [&](int done, int total) {
    if (quiet) {
      return;
    }
    std::lock_guard<std::mutex> lock(progress_mu);
    std::fprintf(stderr, "\r%d/%d runs", done, total);
    if (done == total) {
      std::fprintf(stderr, "\n");
    }
  };
  mexp::ExperimentReport report = runner.Run(spec, progress);

  mexp::Json doc = mexp::ReportToJson(report);
  if (out_path.empty()) {
    doc.Dump(std::cout);
    std::cout << "\n";
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
      return 2;
    }
    doc.Dump(out);
    out << "\n";
    if (!quiet) {
      std::fprintf(stderr, "report: %s\n", out_path.c_str());
    }
  }
  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    if (!csv) {
      std::fprintf(stderr, "cannot write '%s'\n", csv_path.c_str());
      return 2;
    }
    mexp::WriteCsv(report, csv);
    if (!quiet) {
      std::fprintf(stderr, "csv: %s\n", csv_path.c_str());
    }
  }
  if (!quiet) {
    PrintSummary(report);
  }
  if (report.failed_runs > 0) {
    std::fprintf(stderr, "%d run(s) failed\n", report.failed_runs);
    return 1;
  }

  if (!baseline_path.empty()) {
    mexp::Json base;
    if (!ReadJsonFile(baseline_path, "baseline", &base)) {
      return 2;
    }
    std::vector<mexp::DiffEntry> diffs = mexp::DiffReports(base, doc, tolerance);
    int regressions = 0;
    for (const mexp::DiffEntry& d : diffs) {
      if (d.regression) {
        ++regressions;
      }
      std::fprintf(stderr, "%s  %s: %s -> %s (%+.1f%%)%s\n", d.point.c_str(),
                   d.metric.c_str(), mexp::Json::NumberToString(d.baseline).c_str(),
                   mexp::Json::NumberToString(d.current).c_str(), d.rel_change * 100.0,
                   d.regression ? "  REGRESSION" : "");
    }
    if (regressions > 0) {
      std::fprintf(stderr, "%d regression(s) beyond %.0f%% tolerance\n", regressions,
                   tolerance * 100.0);
      return 1;
    }
    std::fprintf(stderr, "baseline diff: no regressions beyond %.0f%% tolerance\n",
                 tolerance * 100.0);
  }
  return 0;
}
