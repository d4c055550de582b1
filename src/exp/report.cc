#include "src/exp/report.h"

#include <cinttypes>
#include <cstdio>

#include "src/mirage/invariants.h"
#include "src/sysv/world.h"
#include "src/trace/table.h"

namespace mexp {

namespace {

Json ParamsToJson(const RunConfig& p) {
  Json j = Json::Object();
  j.Set("workload", Json(p.workload));
  j.Set("sites", Json(p.sites));
  j.Set("delta_ms", Json(p.delta_ms));
  j.Set("quantum_ticks", Json(p.quantum_ticks));
  j.Set("segment_bytes", Json(static_cast<double>(p.segment_bytes)));
  j.Set("loss", Json(p.loss));
  // replicas=1 (the single-copy protocol) is omitted so that PointKey — and
  // therefore regression diffs — match reports written before the replication
  // axis existed.
  if (p.replicas != 1) {
    j.Set("replicas", Json(p.replicas));
  }
  // kvstore axes only exist for the kvstore workload; emitting them there
  // unconditionally (defaults included) keeps every other workload's
  // PointKey — and all pre-kvstore baselines — unchanged.
  if (p.workload == "kvstore") {
    j.Set("zipf_s", Json(p.zipf_s));
    j.Set("get_mix", Json(p.get_mix));
    j.Set("kv_replicas", Json(p.kv_replicas));
  }
  // The default preset is omitted: pre-preset reports stay byte-compatible.
  if (p.cost_preset != "ethernet1989" && !p.cost_preset.empty()) {
    j.Set("cost", Json(p.cost_preset));
  }
  j.Set("fault_plan", Json(p.fault_plan));
  return j;
}

Json HistogramToJson(const mtrace::LatencyHistogram& h) {
  Json j = Json::Object();
  j.Set("count", Json(static_cast<double>(h.count())));
  j.Set("mean_ms", Json(h.MeanMs()));
  j.Set("p50_ms", Json(h.PercentileMs(0.50)));
  j.Set("p90_ms", Json(h.PercentileMs(0.90)));
  j.Set("p95_ms", Json(h.PercentileMs(0.95)));
  j.Set("p99_ms", Json(h.PercentileMs(0.99)));
  j.Set("max_ms", Json(h.MaxMs()));
  return j;
}

std::string SeedString(std::uint64_t seed) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, seed);
  return buf;
}

// Human-readable point key, also used to match points across reports.
std::string PointKey(const Json& params) {
  std::string key;
  for (const auto& [name, value] : params.members()) {
    if (!key.empty()) {
      key += " ";
    }
    key += name + "=" +
           (value.is_string() ? value.AsString() : Json::NumberToString(value.AsDouble()));
  }
  return key;
}

}  // namespace

Json ReportToJson(const ExperimentReport& report) {
  Json root = Json::Object();
  // v2: failover counters (fail_notices_*, elections, recoveries, pages_*,
  // stale_epoch_drops, recovery_replies) and replication counters
  // (replica_writes, quorum_waits, degraded_reads, replica_respreads) appear
  // in run metrics; params carry "replicas" when != 1. v1 readers that
  // ignore unknown members parse v2 reports unchanged.
  root.Set("schema", Json("mirage-exp-v2"));
  root.Set("name", Json(report.spec.name));
  root.Set("workload", Json(report.spec.workload));
  root.Set("spec", report.spec.ToJson());
  root.Set("failed_runs", Json(report.failed_runs));

  Json points = Json::Array();
  for (const PointResult& pt : report.points) {
    Json p = Json::Object();
    p.Set("params", ParamsToJson(pt.params));
    p.Set("repetitions", Json(static_cast<int>(pt.runs.size())));

    Json metrics = Json::Object();
    for (const auto& [name, acc] : pt.metrics) {
      Json m = Json::Object();
      m.Set("mean", Json(acc.Mean()));
      m.Set("min", Json(acc.Min()));
      m.Set("max", Json(acc.Max()));
      m.Set("stddev", Json(acc.StdDev()));
      m.Set("ci95", Json(acc.Ci95HalfWidth()));
      m.Set("n", Json(static_cast<double>(acc.count())));
      metrics.Set(name, std::move(m));
    }
    p.Set("metrics", std::move(metrics));

    Json lat = Json::Object();
    lat.Set("read", HistogramToJson(pt.read_latency));
    lat.Set("write", HistogramToJson(pt.write_latency));
    p.Set("fault_latency", std::move(lat));

    Json runs = Json::Array();
    for (std::size_t r = 0; r < pt.runs.size(); ++r) {
      const RunResult& rr = pt.runs[r];
      Json jr = Json::Object();
      jr.Set("rep", Json(static_cast<int>(r)));
      jr.Set("seed", Json(SeedString(
                         ExperimentSpec::DeriveSeed(report.spec.seed,
                                                    pt.params.run_index + static_cast<int>(r)))));
      if (!rr.ok) {
        jr.Set("error", Json(rr.error));
      } else {
        Json jm = Json::Object();
        for (const auto& [name, value] : rr.metrics) {
          jm.Set(name, Json(value));
        }
        jr.Set("metrics", std::move(jm));
      }
      runs.Push(std::move(jr));
    }
    p.Set("runs", std::move(runs));
    points.Push(std::move(p));
  }
  root.Set("points", std::move(points));
  return root;
}

void WriteCsv(const ExperimentReport& report, std::ostream& os) {
  os << "point,workload,sites,delta_ms,quantum_ticks,segment_bytes,loss,replicas,zipf_s,"
        "get_mix,kv_replicas,cost,fault_plan,metric,n,mean,min,max,stddev,ci95\n";
  int index = 0;
  for (const PointResult& pt : report.points) {
    const RunConfig& p = pt.params;
    std::string prefix = std::to_string(index++) + "," + p.workload + "," +
                         std::to_string(p.sites) + "," + std::to_string(p.delta_ms) + "," +
                         std::to_string(p.quantum_ticks) + "," +
                         std::to_string(p.segment_bytes) + "," +
                         Json::NumberToString(p.loss) + "," + std::to_string(p.replicas) +
                         "," + Json::NumberToString(p.zipf_s) + "," +
                         Json::NumberToString(p.get_mix) + "," +
                         std::to_string(p.kv_replicas) + "," + p.cost_preset + "," +
                         p.fault_plan + ",";
    for (const auto& [name, acc] : pt.metrics) {
      os << prefix << name << "," << acc.count() << "," << Json::NumberToString(acc.Mean())
         << "," << Json::NumberToString(acc.Min()) << "," << Json::NumberToString(acc.Max())
         << "," << Json::NumberToString(acc.StdDev()) << ","
         << Json::NumberToString(acc.Ci95HalfWidth()) << "\n";
    }
    struct Row {
      const char* name;
      double value;
      std::uint64_t n;
    };
    const Row latency_rows[] = {
        {"read_fault_mean_ms", pt.read_latency.MeanMs(), pt.read_latency.count()},
        {"read_fault_p50_ms", pt.read_latency.PercentileMs(0.50), pt.read_latency.count()},
        {"read_fault_p99_ms", pt.read_latency.PercentileMs(0.99), pt.read_latency.count()},
        {"write_fault_mean_ms", pt.write_latency.MeanMs(), pt.write_latency.count()},
        {"write_fault_p50_ms", pt.write_latency.PercentileMs(0.50), pt.write_latency.count()},
        {"write_fault_p99_ms", pt.write_latency.PercentileMs(0.99), pt.write_latency.count()},
    };
    for (const Row& row : latency_rows) {
      os << prefix << row.name << "," << row.n << "," << Json::NumberToString(row.value)
         << ",,,,\n";
    }
  }
}

void PrintRunReport(msysv::World& world, const RunConfig& cfg, const RunResult& result,
                    std::ostream& os) {
  using mtrace::TextTable;
  auto metric = [&result](const std::string& name) {
    auto it = result.metrics.find(name);
    return it == result.metrics.end() ? 0.0 : it->second;
  };
  auto count = [&metric](const std::string& name) {
    return TextTable::Int(static_cast<long long>(metric(name)));
  };

  os << "scenario: " << cfg.workload << ", " << cfg.sites << " sites, Delta=" << cfg.delta_ms
     << " ms" << (cfg.use_yield ? "" : ", no yield")
     << (cfg.parallel_lib ? ", parallel library" : "")
     << (cfg.baseline ? ", Li/Hudak baseline" : "");
  if (cfg.cost_preset != "ethernet1989") {
    os << ", " << cfg.cost_preset << " costs";
  }
  if (cfg.loss > 0.0) {
    os << ", " << TextTable::Num(cfg.loss * 100.0, 0) << "% frame loss";
  }
  if (cfg.replicas > 1) {
    os << ", " << cfg.replicas << " replicas";
  }
  if (!cfg.faults.empty()) {
    os << ", " << cfg.faults.events().size() << " fault events";
  }
  os << "\n\n";
  if (metric("aborted") != 0.0) {
    os << "workload aborted: a page fault failed (EIDRM)\n";
  }

  const std::string& w = cfg.workload;
  if (w == "pingpong") {
    os << "throughput: " << TextTable::Num(metric("throughput")) << " cycles/s over "
       << count("cycles") << " cycles\n";
  } else if (w == "readwriters") {
    os << "throughput: " << TextTable::Num(metric("throughput"), 0) << " read-write ops/s\n";
    if (cfg.with_background) {
      os << "background: " << TextTable::Num(metric("background_units_per_s"), 1)
         << " units/s\n";
    }
  } else if (w == "spinlock") {
    os << "throughput: " << TextTable::Num(metric("throughput"))
       << " critical sections/s (mutex " << (metric("mutex_held") != 0.0 ? "held" : "BROKEN")
       << ")\n";
  } else if (w == "scalability") {
    os << "mean write latency: " << TextTable::Num(metric("mean_write_latency_ms"), 1)
       << " ms, " << TextTable::Num(metric("invalidations_per_round"), 1)
       << " invalidations/round\n";
  } else if (w == "kvstore") {
    os << "throughput: " << TextTable::Num(metric("throughput"), 1) << " ops/s ("
       << count("kv_gets") << " gets, " << count("kv_sets") << " sets; " << count("kv_misses")
       << " misses, " << count("kv_torn_reads") << " torn, " << count("kv_integrity_failures")
       << " integrity failures)\n";
    os << "request queues: peak " << count("kv_queue_peak") << ", mean depth "
       << TextTable::Num(metric("kv_queue_mean_depth")) << "\n";
    for (const char* op : {"get", "set"}) {
      const std::string m = std::string("kv_") + op;
      os << op << " latency (arrival to completion): mean=" << metric(m + "_mean_ms")
         << "ms p50=" << metric(m + "_p50_ms") << "ms p95=" << metric(m + "_p95_ms")
         << "ms p99=" << metric(m + "_p99_ms") << "ms\n";
    }
  } else {  // matrix, dot, tsp: timed and checked against a reference answer
    const bool tsp = w == "tsp";
    const bool verified = metric("verified") != 0.0;
    os << "elapsed: " << TextTable::Num(metric("elapsed_s"), 3) << " s ("
       << (verified ? (tsp ? "optimal" : "verified") : (tsp ? "SUBOPTIMAL" : "WRONG RESULT"))
       << ")";
    if (tsp) {
      os << ", " << count("nodes_expanded") << " nodes";
    }
    os << "\n";
  }
  os << "\n";

  world.PrintReport(os);
  if (result.read_latency.count() > 0) {
    result.read_latency.Print(os, "all-site read-fault latency");
  }
  if (result.write_latency.count() > 0) {
    result.write_latency.Print(os, "all-site write-fault latency");
  }
  if (!cfg.baseline) {
    // Under faults the checker is scoped to live sites: a crashed site's
    // frozen copies left the system, and coherence and directory/image
    // agreement must still hold among the survivors, across any failover.
    std::vector<mirage::Engine*> engines;
    for (int s = 0; s < world.site_count(); ++s) {
      engines.push_back(world.engine(s));
    }
    world.RunFor(2 * msim::kSecond);  // quiesce
    mirage::InvariantChecker checker(engines);
    const mirage::InvariantReport inv = checker.CheckFull(world.registry());
    os << "\ninvariants: " << (inv.ok() ? "OK" : "VIOLATED") << " (" << inv.pages_checked
       << " pages checked)\n";
    for (const std::string& v : inv.violations) {
      os << "  !! " << v << "\n";
    }
  }
  if (const mnet::CircuitStats* cs = world.network().circuit_stats()) {
    os << "\ncircuits: " << cs->data_frames_sent << " data frames, " << cs->frames_dropped
       << " dropped, " << cs->retransmits << " retransmits, " << cs->duplicates_suppressed
       << " duplicates suppressed\n";
  }
  if (cfg.trace) {
    os << "\nprotocol trace:\n";
    world.tracer().Print(os);
  }
}

MetricSense SenseOf(const std::string& metric) {
  auto contains = [&metric](const char* s) { return metric.find(s) != std::string::npos; };
  if (contains("throughput") || contains("ops") || contains("units") || contains("cycles") ||
      contains("completed") || contains("verified") || contains("mutex_held")) {
    // "ops_failed" contains "ops" but is unambiguously a failure counter.
    if (contains("failed")) {
      return MetricSense::kLowerIsBetter;
    }
    return MetricSense::kHigherIsBetter;
  }
  if (contains("latency") || contains("elapsed") || contains("failed") ||
      contains("timeouts") || contains("aborted") || contains("_p50") || contains("_p95") ||
      contains("_p99") || contains("refusals") || contains("lost") || contains("degraded") ||
      contains("stale_epoch") || contains("torn") || contains("misses") ||
      contains("integrity") || contains("queue")) {
    return MetricSense::kLowerIsBetter;
  }
  return MetricSense::kNeutral;
}

std::vector<DiffEntry> DiffReports(const Json& baseline, const Json& current,
                                   double tolerance) {
  std::vector<DiffEntry> out;
  const Json* base_points = baseline.Find("points");
  const Json* cur_points = current.Find("points");
  if (base_points == nullptr || cur_points == nullptr) {
    return out;
  }

  // Index baseline points by their parameter key.
  std::vector<std::pair<std::string, const Json*>> base_index;
  for (const Json& p : base_points->items()) {
    const Json* params = p.Find("params");
    if (params != nullptr) {
      base_index.emplace_back(PointKey(*params), &p);
    }
  }

  for (const Json& cur : cur_points->items()) {
    const Json* params = cur.Find("params");
    if (params == nullptr) {
      continue;
    }
    std::string key = PointKey(*params);
    const Json* base = nullptr;
    for (const auto& [bk, bp] : base_index) {
      if (bk == key) {
        base = bp;
        break;
      }
    }
    if (base == nullptr) {
      continue;  // new point; nothing to compare against
    }
    const Json* cur_metrics = cur.Find("metrics");
    const Json* base_metrics = base->Find("metrics");
    if (cur_metrics == nullptr || base_metrics == nullptr) {
      continue;
    }
    for (const auto& [name, cm] : cur_metrics->members()) {
      const Json* bm = base_metrics->Find(name);
      if (bm == nullptr) {
        continue;
      }
      double b = bm->GetDouble("mean", 0.0);
      double c = cm.GetDouble("mean", 0.0);
      if (b == c) {
        continue;
      }
      double denom = b < 0 ? -b : b;
      // A metric moving off zero has no relative scale; treat it as a full
      // swing so it always clears the tolerance and gets reported.
      double rel = denom == 0.0 ? (c > b ? 1.0 : -1.0) : (c - b) / denom;
      double mag = rel < 0 ? -rel : rel;
      if (mag <= tolerance) {
        continue;
      }
      DiffEntry e;
      e.point = key;
      e.metric = name;
      e.baseline = b;
      e.current = c;
      e.rel_change = rel;
      MetricSense sense = SenseOf(name);
      e.regression = (sense == MetricSense::kHigherIsBetter && rel < 0) ||
                     (sense == MetricSense::kLowerIsBetter && rel > 0);
      out.push_back(std::move(e));
    }
  }
  return out;
}

}  // namespace mexp
