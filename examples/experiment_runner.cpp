// The experiment CLI: one run or a declarative parameter sweep, executed on
// a worker-thread pool, with streaming statistics and machine-readable
// output. Every run goes through mexp::ExecuteRun, so a one-run report and
// a sweep point with the same parameters measure the same simulation.
//
// A bad argument (--help, say) prints the usage: the presets, the fault-plan
// and execution flags, and mexp::Usage(), which lists every spec member with
// its flag and range. Arguments apply in order, so a flag overrides the
// preset or --spec file before it. Any fault plan enables the protocol
// recovery timeouts (request backoff, ack timeouts, op deadline).
//
// Exit code: 2 for bad arguments. Otherwise 0, or 1 if a run failed (or, with
// --report, if the workload did not complete, e.g. EIDRM under faults).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/report.h"
#include "src/trace/table.h"

namespace {

constexpr char kUsage[] = R"(usage: experiment_runner [preset | --spec=FILE.json] [flag ...]
presets (EXPERIMENTS.md): fig8 (Figure 8's Delta sweep), amelioration (§7.3/§8
  background throughput), scalematrix (sites x frame loss), availability
  (failover and replicas under crash plans), kvstore (zipf x mix x Delta x copies)
fault plans, one per flag (times in ms): --crash=S@T  --pause=S@T1:T2
  --cut=A-B@T1:T2, and --recover=T:S, which revives S in the last plan
execution and output:
  --threads=N       worker threads (default: all cores); the same report for any N,
                    and for any MIRAGE_SIM_WORKERS count of simulator threads
  --out=FILE        write the JSON report (default: stdout); --csv=FILE adds a CSV
  --baseline=FILE   diff against a stored report; a regression beyond
                    --tolerance=X (default 0.10) exits 1
  --quiet           no stderr progress ticker
  --report          a text report of a spec that expands to one run, not JSON;
                    --trace adds the protocol event trace
)";

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
  auto bad_argument = [](const std::string& why) {
    std::fprintf(stderr, "%s\n\n%s%s", why.c_str(), kUsage, mexp::Usage().c_str());
    return 2;
  };
  auto add_plan = [&spec, &next_plan](const char* kind) -> mfault::FaultPlan& {
    mexp::FaultPlanSpec& fp = spec.fault_plans.emplace_back();
    fp.name = kind + std::to_string(next_plan++);
    return fp.plan;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    const std::string value = s.substr(s.find('=') + 1);
    auto flag = [&s](const char* name) { return s.rfind(name, 0) == 0; };
    int site = 0, peer = 0, used = -1;  // used: characters sscanf consumed
    long t1 = 0, t2 = 0;
    auto whole = [&value, &used] { return used == static_cast<int>(value.size()); };
    if (std::optional<mexp::ExperimentSpec> preset = mexp::Preset(s)) {
      spec = *preset;
    } else if (flag("--spec=")) {
      mexp::Json j;
      std::string error;
      if (!ReadJsonFile(value, "spec file", &j)) {
        return 2;
      }
      if (!mexp::ExperimentSpec::FromJson(j, &spec, &error)) {
        return bad_argument("bad spec: " + error);
      }
    } else if (flag("--crash=")) {
      if (std::sscanf(value.c_str(), "%d@%ld%n", &site, &t1, &used) != 2 || !whole()) {
        return bad_argument("bad --crash, want S@Tms");
      }
      add_plan("crash").CrashAt(t1 * msim::kMillisecond, site);
    } else if (flag("--recover=")) {
      if (std::sscanf(value.c_str(), "%ld:%d%n", &t1, &site, &used) != 2 || !whole()) {
        return bad_argument("bad --recover, want Tms:SITE");
      }
      if (spec.fault_plans.empty()) {
        return bad_argument("--recover needs a preceding --crash plan to extend");
      }
      spec.fault_plans.back().plan.RecoverAt(t1 * msim::kMillisecond, site);
    } else if (flag("--pause=")) {
      if (std::sscanf(value.c_str(), "%d@%ld:%ld%n", &site, &t1, &t2, &used) != 3 || !whole() ||
          t2 < t1) {
        return bad_argument("bad --pause, want S@T1:T2 ms");
      }
      add_plan("pause").PauseAt(t1 * msim::kMillisecond, site).ResumeAt(t2 * msim::kMillisecond,
                                                                          site);
    } else if (flag("--cut=")) {
      if (std::sscanf(value.c_str(), "%d-%d@%ld:%ld%n", &site, &peer, &t1, &t2, &used) != 4 ||
          !whole() || t2 < t1) {
        return bad_argument("bad --cut, want A-B@T1:T2 ms");
      }
      add_plan("cut")
          .PartitionAt(t1 * msim::kMillisecond, site, peer)
          .HealAt(t2 * msim::kMillisecond, site, peer);
    } else if (flag("--threads=")) {
      if (!mexp::ParseNumber(value, &threads)) {
        return bad_argument("bad --threads, want an integer");
      }
    } else if (flag("--tolerance=")) {
      if (!mexp::ParseNumber(value, &tolerance)) {
        return bad_argument("bad --tolerance, want a number");
      }
    } else if (flag("--out=")) {
      out_path = value;
    } else if (flag("--csv=")) {
      csv_path = value;
    } else if (flag("--baseline=")) {
      baseline_path = value;
    } else if (s == "--quiet") {
      quiet = true;
    } else if (s == "--report") {
      report_mode = true;
    } else if (s == "--trace") {
      trace = true;
    } else if (std::string error; !mexp::ApplyFlag(s, &spec, &error)) {
      return bad_argument(error);
    }
  }
  if (std::string error; !spec.Validate(&error)) {
    return bad_argument("bad spec: " + error);
  }
  if (trace && !report_mode) {
    return bad_argument("--trace prints with --report only");
  }
  if (report_mode) {
    std::vector<mexp::RunConfig> runs = spec.Expand();
    if (runs.size() != 1) {
      return bad_argument("--report needs a spec that expands to one run, not " +
                          std::to_string(runs.size()));
    }
    if (!out_path.empty() || !csv_path.empty() || !baseline_path.empty()) {
      return bad_argument("--report prints text only (no --out, --csv or --baseline)");
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
