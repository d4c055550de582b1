#include "src/exp/spec.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "src/mem/page.h"
#include "src/net/cost_model.h"
#include "src/sim/random.h"

namespace mexp {

namespace {

// Upper bounds on the sizes a run allocates. Far above any experiment's, they
// exist to reject a negative flag value that wrapped to a huge unsigned one.
constexpr std::uint32_t kMaxSegmentBytes = 16u << 20;
constexpr std::uint32_t kMaxKvKeys = 1u << 20;
constexpr std::uint32_t kMaxKvOpsPerSite = 10000000;
// A hash-map slot (key, version, value) must fit in one page.
constexpr std::uint32_t kMaxKvValueWords = mmem::kPageSize / 4 - 2;

template <typename T>
Json NumArray(const std::vector<T>& v) {
  Json a = Json::Array();
  for (T x : v) {
    a.Push(Json(static_cast<double>(x)));
  }
  return a;
}

template <typename T>
bool ReadNumArray(const Json& j, const std::string& key, std::vector<T>* out) {
  const Json* a = j.Find(key);
  if (a == nullptr) {
    return true;  // keep default
  }
  if (!a->is_array()) {
    return false;
  }
  out->clear();
  for (const Json& v : a->items()) {
    if (!v.is_number()) {
      return false;
    }
    out->push_back(static_cast<T>(v.AsDouble()));
  }
  return !out->empty();
}

}  // namespace

int ExperimentSpec::PointCount() const {
  std::size_t plans = fault_plans.empty() ? 1 : fault_plans.size();
  return static_cast<int>(sites.size() * delta_ms.size() * quantum_ticks.size() *
                          segment_bytes.size() * loss.size() * replicas.size() *
                          zipf_s.size() * get_mix.size() * kv_replicas.size() *
                          cost_presets.size() * plans);
}

std::uint64_t ExperimentSpec::DeriveSeed(std::uint64_t base, int run_index) {
  // One splitmix step keyed by the run index: adjacent runs get unrelated
  // streams, and the mapping is a pure function of (base, index).
  msim::Rng rng(base + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(run_index + 1));
  return rng.Next();
}

std::vector<RunConfig> ExperimentSpec::Expand() const {
  std::vector<FaultPlanSpec> plans = fault_plans;
  if (plans.empty()) {
    plans.emplace_back();  // the implicit fault-free "none" plan
  }
  const int reps = repetitions < 1 ? 1 : repetitions;
  const int points = PointCount();
  std::vector<RunConfig> out;
  for (int point = 0; point < points; ++point) {
    // The point index is a mixed-radix number, one digit per axis. Each
    // pick takes the lowest remaining digit, so the axes are picked fastest
    // first: the reverse of their order in ExperimentSpec.
    std::size_t rest = static_cast<std::size_t>(point);
    auto pick = [&rest](const auto& axis) -> const auto& {
      const auto& value = axis[rest % axis.size()];
      rest /= axis.size();
      return value;
    };
    RunConfig cfg;
    static_cast<Tunables&>(cfg) = *this;
    cfg.point = point;
    const FaultPlanSpec& fp = pick(plans);
    cfg.fault_plan = fp.name;
    cfg.faults = fp.plan;
    cfg.cost_preset = pick(cost_presets);
    cfg.kv_replicas = pick(kv_replicas);
    cfg.get_mix = pick(get_mix);
    cfg.zipf_s = pick(zipf_s);
    cfg.replicas = pick(replicas);
    cfg.loss = pick(loss);
    cfg.segment_bytes = pick(segment_bytes);
    cfg.quantum_ticks = pick(quantum_ticks);
    cfg.delta_ms = pick(delta_ms);
    cfg.sites = pick(sites);
    for (int r = 0; r < reps; ++r) {
      cfg.rep = r;
      cfg.run_index = point * reps + r;
      cfg.seed = DeriveSeed(seed, cfg.run_index);
      if (!phase_offsets_ms.empty()) {
        cfg.start_offset_us =
            phase_offsets_ms[static_cast<std::size_t>(r) % phase_offsets_ms.size()] *
            msim::kMillisecond;
      }
      out.push_back(cfg);
    }
  }
  return out;
}

std::string SeedString(std::uint64_t seed) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, seed);
  return buf;
}

Json FaultPlanToJson(const FaultPlanSpec& fp) {
  Json j = Json::Object();
  j.Set("name", Json(fp.name));
  Json events = Json::Array();
  for (const mfault::FaultEvent& ev : fp.plan.events()) {
    Json e = Json::Object();
    switch (ev.kind) {
      case mfault::FaultKind::kCrashSite: e.Set("kind", Json("crash")); break;
      case mfault::FaultKind::kPauseSite: e.Set("kind", Json("pause")); break;
      case mfault::FaultKind::kResumeSite: e.Set("kind", Json("resume")); break;
      case mfault::FaultKind::kPartitionLink: e.Set("kind", Json("cut")); break;
      case mfault::FaultKind::kHealLink: e.Set("kind", Json("heal")); break;
      case mfault::FaultKind::kRecoverSite: e.Set("kind", Json("recover")); break;
    }
    e.Set("at_ms", Json(static_cast<double>(ev.at_us) / 1000.0));
    e.Set("site", Json(ev.site));
    if (ev.peer != mnet::kNoSite) {
      e.Set("peer", Json(ev.peer));
    }
    events.Push(std::move(e));
  }
  j.Set("events", std::move(events));
  return j;
}

bool FaultPlanFromJson(const Json& j, FaultPlanSpec* out, std::string* error) {
  if (!j.is_object()) {
    *error = "fault plan must be an object";
    return false;
  }
  out->name = j.GetString("name", "plan");
  out->plan = mfault::FaultPlan();
  const Json* events = j.Find("events");
  if (events == nullptr) {
    return true;
  }
  if (!events->is_array()) {
    *error = "fault plan 'events' must be an array";
    return false;
  }
  for (const Json& e : events->items()) {
    std::string kind = e.GetString("kind", "");
    msim::Time at =
        static_cast<msim::Time>(e.GetDouble("at_ms", 0.0) * msim::kMillisecond);
    int site = static_cast<int>(e.GetInt("site", -1));
    int peer = static_cast<int>(e.GetInt("peer", -1));
    if (kind == "crash") {
      out->plan.CrashAt(at, site);
    } else if (kind == "pause") {
      out->plan.PauseAt(at, site);
    } else if (kind == "resume") {
      out->plan.ResumeAt(at, site);
    } else if (kind == "cut") {
      out->plan.PartitionAt(at, site, peer);
    } else if (kind == "heal") {
      out->plan.HealAt(at, site, peer);
    } else if (kind == "recover") {
      out->plan.RecoverAt(at, site);
    } else {
      *error = "unknown fault kind '" + kind + "'";
      return false;
    }
  }
  return true;
}

Json ExperimentSpec::ToJson() const {
  Json j = Json::Object();
  j.Set("name", Json(name));
  j.Set("workload", Json(workload));
  j.Set("sites", NumArray(sites));
  j.Set("delta_ms", NumArray(delta_ms));
  j.Set("quantum_ticks", NumArray(quantum_ticks));
  j.Set("segment_bytes", NumArray(segment_bytes));
  j.Set("loss", NumArray(loss));
  j.Set("replicas", NumArray(replicas));
  j.Set("zipf_s", NumArray(zipf_s));
  j.Set("get_mix", NumArray(get_mix));
  j.Set("kv_replicas", NumArray(kv_replicas));
  // Omitted at the default so pre-axis specs round-trip byte-identically.
  if (!(cost_presets.size() == 1 && cost_presets[0] == "ethernet1989")) {
    Json presets = Json::Array();
    for (const std::string& cp : cost_presets) {
      presets.Push(Json(cp));
    }
    j.Set("cost_presets", std::move(presets));
  }
  if (!fault_plans.empty()) {
    Json plans = Json::Array();
    for (const FaultPlanSpec& fp : fault_plans) {
      plans.Push(FaultPlanToJson(fp));
    }
    j.Set("fault_plans", std::move(plans));
  }
  j.Set("repetitions", Json(repetitions));
  j.Set("phase_offsets_ms", NumArray(phase_offsets_ms));
  j.Set("seed", Json(SeedString(seed)));
  j.Set("library_site", Json(library_site));
  j.Set("iterations", Json(iterations));
  j.Set("rounds", Json(rounds));
  j.Set("matrix_n", Json(matrix_n));
  j.Set("dot_length", Json(dot_length));
  j.Set("tsp_cities", Json(tsp_cities));
  j.Set("with_background", Json(with_background));
  j.Set("yield", Json(use_yield));
  j.Set("parallel_lib", Json(parallel_lib));
  j.Set("baseline", Json(baseline));
  j.Set("max_time_s", Json(max_time_s));
  j.Set("kv_keys", Json(static_cast<std::int64_t>(kv_keys)));
  j.Set("kv_value_words", Json(static_cast<std::int64_t>(kv_value_words)));
  j.Set("kv_arrival_per_s", Json(kv_arrival_per_s));
  j.Set("kv_ops_per_site", Json(static_cast<std::int64_t>(kv_ops_per_site)));
  j.Set("kv_workers", Json(kv_workers));
  j.Set("kv_shards", Json(static_cast<std::int64_t>(kv_shards)));
  return j;
}

bool ExperimentSpec::FromJson(const Json& j, ExperimentSpec* out, std::string* error) {
  if (!j.is_object()) {
    *error = "spec must be a JSON object";
    return false;
  }
  ExperimentSpec spec;
  spec.name = j.GetString("name", spec.name);
  spec.workload = j.GetString("workload", spec.workload);
  if (!ReadNumArray(j, "sites", &spec.sites) || !ReadNumArray(j, "delta_ms", &spec.delta_ms) ||
      !ReadNumArray(j, "quantum_ticks", &spec.quantum_ticks) ||
      !ReadNumArray(j, "segment_bytes", &spec.segment_bytes) ||
      !ReadNumArray(j, "loss", &spec.loss) ||
      !ReadNumArray(j, "replicas", &spec.replicas) ||
      !ReadNumArray(j, "zipf_s", &spec.zipf_s) ||
      !ReadNumArray(j, "get_mix", &spec.get_mix) ||
      !ReadNumArray(j, "kv_replicas", &spec.kv_replicas) ||
      !ReadNumArray(j, "phase_offsets_ms", &spec.phase_offsets_ms)) {
    *error = "axis members must be non-empty arrays of numbers";
    return false;
  }
  const Json* presets = j.Find("cost_presets");
  if (presets != nullptr) {
    if (!presets->is_array()) {
      *error = "'cost_presets' must be an array of strings";
      return false;
    }
    spec.cost_presets.clear();
    for (const Json& cp : presets->items()) {
      if (!cp.is_string()) {
        *error = "'cost_presets' must be an array of strings";
        return false;
      }
      spec.cost_presets.push_back(cp.AsString());
    }
  }
  const Json* plans = j.Find("fault_plans");
  if (plans != nullptr) {
    if (!plans->is_array()) {
      *error = "'fault_plans' must be an array";
      return false;
    }
    for (const Json& p : plans->items()) {
      FaultPlanSpec fp;
      if (!FaultPlanFromJson(p, &fp, error)) {
        return false;
      }
      spec.fault_plans.push_back(std::move(fp));
    }
  }
  spec.repetitions = static_cast<int>(j.GetInt("repetitions", spec.repetitions));
  // Seeds are serialized as hex strings: 64-bit values do not survive a trip
  // through a JSON double.
  const Json* seed = j.Find("seed");
  if (seed != nullptr) {
    if (seed->is_number()) {
      spec.seed = static_cast<std::uint64_t>(seed->AsInt());
    } else if (seed->is_string()) {
      spec.seed = std::strtoull(seed->AsString().c_str(), nullptr, 0);
    }
  }
  spec.library_site = static_cast<int>(j.GetInt("library_site", spec.library_site));
  spec.iterations = static_cast<int>(j.GetInt("iterations", spec.iterations));
  spec.rounds = static_cast<int>(j.GetInt("rounds", spec.rounds));
  spec.matrix_n = static_cast<int>(j.GetInt("matrix_n", spec.matrix_n));
  spec.dot_length = static_cast<int>(j.GetInt("dot_length", spec.dot_length));
  spec.tsp_cities = static_cast<int>(j.GetInt("tsp_cities", spec.tsp_cities));
  spec.with_background = j.GetBool("with_background", spec.with_background);
  spec.use_yield = j.GetBool("yield", spec.use_yield);
  spec.parallel_lib = j.GetBool("parallel_lib", spec.parallel_lib);
  spec.baseline = j.GetBool("baseline", spec.baseline);
  spec.max_time_s = j.GetInt("max_time_s", spec.max_time_s);
  spec.kv_keys = static_cast<std::uint32_t>(j.GetInt("kv_keys", spec.kv_keys));
  spec.kv_value_words =
      static_cast<std::uint32_t>(j.GetInt("kv_value_words", spec.kv_value_words));
  spec.kv_arrival_per_s = j.GetDouble("kv_arrival_per_s", spec.kv_arrival_per_s);
  spec.kv_ops_per_site =
      static_cast<std::uint32_t>(j.GetInt("kv_ops_per_site", spec.kv_ops_per_site));
  spec.kv_workers = static_cast<int>(j.GetInt("kv_workers", spec.kv_workers));
  spec.kv_shards = static_cast<std::uint32_t>(j.GetInt("kv_shards", spec.kv_shards));
  if (!spec.Validate(error)) {
    return false;
  }
  *out = std::move(spec);
  return true;
}

bool ExperimentSpec::Validate(std::string* error) const {
  auto fail = [error](std::string message) {
    *error = std::move(message);
    return false;
  };
  if (!KnownWorkload(workload)) {
    return fail("unknown workload '" + workload + "'");
  }
  if (PointCount() == 0) {
    return fail("every axis needs at least one value");
  }
  if (repetitions < 1) {
    return fail("repetitions must be >= 1");
  }
  for (int s : sites) {
    if (s < 1 || s > 512) {
      return fail("sites values must be in 1..512");
    }
  }
  // Sites are numbered from 0, and every point of the grid must have the
  // sites that the library placement and the fault plans name.
  const int min_sites = *std::min_element(sites.begin(), sites.end());
  if (library_site < 0 || library_site >= min_sites) {
    return fail("library_site must be in 0.." + std::to_string(min_sites - 1) +
                " (below the smallest sites value)");
  }
  for (std::int64_t d : delta_ms) {
    if (d < 0) {
      return fail("delta_ms values must be >= 0");
    }
  }
  for (std::uint32_t b : segment_bytes) {
    if (b < 1 || b > kMaxSegmentBytes) {
      return fail("segment_bytes values must be in 1.." + std::to_string(kMaxSegmentBytes));
    }
  }
  for (const std::string& cp : cost_presets) {
    mnet::CostModel unused;
    if (!mnet::CostModel::FromName(cp, &unused)) {
      return fail("unknown cost preset '" + cp + "' (ethernet1989, rdma)");
    }
  }
  for (double l : loss) {
    if (l < 0.0 || l > 1.0) {
      return fail("loss values must be in [0, 1]");
    }
  }
  for (int k : replicas) {
    if (k < 1 || k > 12) {
      return fail("replicas values must be in 1..12");
    }
  }
  for (int k : kv_replicas) {
    if (k < 1 || k > 12) {
      return fail("kv_replicas values must be in 1..12");
    }
  }
  for (double g : get_mix) {
    if (g < 0.0 || g > 1.0) {
      return fail("get_mix values must be in [0, 1]");
    }
  }
  for (double z : zipf_s) {
    if (z < 0.0) {
      return fail("zipf_s values must be >= 0");
    }
  }
  for (const FaultPlanSpec& fp : fault_plans) {
    std::string why;
    if (!fp.plan.Validate(min_sites, &why)) {
      return fail("fault plan '" + fp.name + "': " + why);
    }
  }
  if (max_time_s < 1) {
    return fail("max_time_s must be >= 1");
  }
  if (kv_keys < 1 || kv_keys > kMaxKvKeys) {
    return fail("kv_keys must be in 1.." + std::to_string(kMaxKvKeys));
  }
  if (kv_ops_per_site > kMaxKvOpsPerSite) {
    return fail("kv_ops_per_site must be <= " + std::to_string(kMaxKvOpsPerSite));
  }
  if (kv_shards > kMaxKvKeys) {
    return fail("kv_shards must be <= " + std::to_string(kMaxKvKeys) + " (0: one per site)");
  }
  if (kv_value_words < 1 || kv_value_words > kMaxKvValueWords) {
    return fail("kv_value_words must be in 1.." + std::to_string(kMaxKvValueWords));
  }
  if (!(kv_arrival_per_s > 0.0)) {  // also rejects NaN
    return fail("kv_arrival_per_s must be > 0");
  }
  if (tsp_cities < 2) {
    return fail("tsp_cities must be >= 2");
  }
  return true;
}

bool KnownWorkload(const std::string& name) {
  return name == "readwriters" || name == "pingpong" || name == "spinlock" ||
         name == "scalability" || name == "matrix" || name == "dot" || name == "tsp" ||
         name == "kvstore";
}

namespace {

ExperimentSpec Fig8Spec() {
  ExperimentSpec spec;
  spec.name = "fig8";
  spec.workload = "readwriters";
  spec.sites = {2};
  spec.delta_ms = {0, 10, 30, 60, 120, 200, 300, 450, 600, 900, 1200, 1600, 2000};
  // Repetitions are the five start phases: the simulator is deterministic,
  // so phase resonances between the two loops are averaged out explicitly.
  spec.repetitions = 5;
  spec.phase_offsets_ms = {0, 170, 410, 730, 1130};
  // ~0.8 s of decrement work per process per checkout epoch; continuous
  // demand, as in the loops of §8.
  spec.iterations = 50000;
  spec.max_time_s = 600;
  return spec;
}

ExperimentSpec AmeliorationSpec() {
  ExperimentSpec spec = Fig8Spec();
  spec.name = "amelioration";
  spec.delta_ms = {0, 60, 300, 900, 2000};
  spec.with_background = true;
  return spec;
}

ExperimentSpec ScaleMatrixSpec() {
  ExperimentSpec spec;
  spec.name = "scalematrix";
  spec.workload = "scalability";
  // Extends well past the paper's testbed: the wide tail (up to 512 sites,
  // SiteMask is 512 bits wide) maps how sequential point-to-point
  // invalidation scales, and is where the parallel simulator core pays off
  // (run with MIRAGE_SIM_WORKERS=4; the loss-free points are eligible).
  spec.sites = {2, 3, 4, 6, 8, 10, 12, 16, 32, 64, 128, 256, 512};
  // A modest window keeps the hot page with the writer long enough to
  // write; at Delta=0 the always-hungry readers steal the page back first
  // and the system thrashes (§5.0's pathological case).
  spec.delta_ms = {50};
  spec.loss = {0.0, 0.01};
  spec.rounds = 8;
  spec.repetitions = 1;
  spec.max_time_s = 600;
  return spec;
}

ExperimentSpec AvailabilitySpec() {
  ExperimentSpec spec;
  spec.name = "availability";
  spec.workload = "pingpong";
  spec.sites = {3, 4, 6, 8};
  spec.delta_ms = {0};
  spec.rounds = 40;
  spec.repetitions = 3;
  // The segment lives on site 2, a pure controller: the ping-pong players
  // (sites 0 and 1) hold every copy, so crashing the library tests failover
  // alone, not data loss.
  spec.library_site = 2;
  // Replication axis: k=1 is the paper's single-copy protocol, k=2..3 add
  // quorum-replicated standbys. The fault-free plan prices the quorum-write
  // latency of each k; crash_holder shows what a data-holder crash destroys
  // (pages_lost > 0 only at k=1).
  spec.replicas = {1, 2, 3};
  FaultPlanSpec none;
  none.name = "none";
  spec.fault_plans.push_back(std::move(none));
  FaultPlanSpec crash;
  crash.name = "crash_library";
  crash.plan.CrashAt(50 * msim::kMillisecond, 2);
  spec.fault_plans.push_back(std::move(crash));
  // Crash a ping-pong player (site 1) mid-run: it holds page copies, so this
  // plan measures data survival, not just controller failover. The run can't
  // complete (a player died) — pages_lost is the metric of interest.
  FaultPlanSpec holder;
  holder.name = "crash_holder";
  holder.plan.CrashAt(50 * msim::kMillisecond, 1);
  spec.fault_plans.push_back(std::move(holder));
  // The full crash-recovery lifecycle: the dead player rejoins at 150 ms
  // with amnesia, re-admits through the epoch-fenced handshake, and is
  // pulled back into the standby set. The report gains mttr_ms /
  // resurrected_pages (only this plan emits them); at k>=2 the rejoin
  // re-attains full k-replica coverage and pages_lost stays 0.
  FaultPlanSpec rejoin;
  rejoin.name = "crash_holder_rejoin";
  rejoin.plan.CrashAt(50 * msim::kMillisecond, 1);
  rejoin.plan.RecoverAt(150 * msim::kMillisecond, 1);
  spec.fault_plans.push_back(std::move(rejoin));
  spec.max_time_s = 60;
  return spec;
}

ExperimentSpec KvStoreSpec() {
  ExperimentSpec spec;
  spec.name = "kvstore";
  spec.workload = "kvstore";
  spec.sites = {4};
  spec.delta_ms = {0, 30};
  // The skew sensitivity story in one CI-sized grid. At kv_replicas=1 and
  // the read-heavy mix, rising zipf-s concentrates traffic on one shard's
  // home: throughput falls, get latency climbs, and lib_load_max_share
  // shows the pile-up. A second data replica recovers the read side — get
  // latency and library balance go flat across the whole sweep — at a flat
  // write-amplification cost in throughput; the write-heavy mix pays double
  // for every set and shows the replication tax undiluted.
  spec.zipf_s = {0.0, 0.9, 1.3};
  spec.get_mix = {0.5, 0.95};
  spec.kv_replicas = {1, 2};
  // 3 reps x 400 ops/site: enough load past warm-up for the trends above to
  // be monotone rather than seed noise, still ~seconds of wall time.
  spec.repetitions = 3;
  spec.kv_ops_per_site = 400;
  spec.kv_arrival_per_s = 240.0;
  spec.max_time_s = 120;
  return spec;
}

}  // namespace

std::optional<ExperimentSpec> Preset(const std::string& name) {
  if (name == "fig8") {
    return Fig8Spec();
  }
  if (name == "amelioration") {
    return AmeliorationSpec();
  }
  if (name == "scalematrix") {
    return ScaleMatrixSpec();
  }
  if (name == "availability") {
    return AvailabilitySpec();
  }
  if (name == "kvstore") {
    return KvStoreSpec();
  }
  return std::nullopt;
}

}  // namespace mexp
