#include "src/exp/spec.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <type_traits>

#include "src/mem/page.h"
#include "src/net/cost_model.h"
#include "src/sim/random.h"

namespace mexp {

namespace {

using S = ExperimentSpec;
using R = RunConfig;

template <typename T>
constexpr SpecField::List<T> List(std::vector<T> S::*values, T R::*run = nullptr) {
  return {values, run};
}

constexpr double kIntMax = std::numeric_limits<int>::max();
constexpr double kNumberMax = std::numeric_limits<double>::max();
// Simulated time is int64 microseconds. Capping every time at 10^15 ms
// (about 31,700 years) keeps its conversion, and the sum of two, in range.
constexpr double kMaxMs = 1e15;

// The spec members in JSON order, axes slowest-changing first. Bounds on
// sizes a run allocates lie far above any experiment's.
constexpr SpecField kFields[] = {
    {"name", nullptr, &S::name, "report name"},
    {"workload", "--workload", &S::workload,
     "readwriters, pingpong, spinlock, scalability, matrix, dot, tsp or kvstore"},
    {"sites", "--sites", List(&S::sites, &R::sites), "site-count axis", 1, 512},
    {"delta_ms", "--delta", List(&S::delta_ms, &R::delta_ms), "time-window axis, ms", 0, kMaxMs},
    {"quantum_ticks", "--quantum", List(&S::quantum_ticks, &R::quantum_ticks),
     "scheduling-quantum axis, ticks", 1, kIntMax},
    {"segment_bytes", "--segbytes", List(&S::segment_bytes, &R::segment_bytes),
     "segment-size axis, bytes", 1, 16 << 20},
    {"loss", "--loss", List(&S::loss, &R::loss), "frame-loss axis (circuits retransmit)", 0, 1},
    {"replicas", "--replicas", List(&S::replicas, &R::replicas), "page-replica axis", 1, 12},
    {"zipf_s", "--zipf", List(&S::zipf_s, &R::zipf_s), "kvstore key-skew axis", 0, kNumberMax},
    {"get_mix", "--mix", List(&S::get_mix, &R::get_mix), "kvstore get-fraction axis", 0, 1},
    {"kv_replicas", "--kvreplicas", List(&S::kv_replicas, &R::kv_replicas),
     "kvstore data-replica axis (table copies)", 1, 12},
    {"cost_presets", "--cost", List(&S::cost_presets, &R::cost_preset),
     "cost-model axis: ethernet1989 or rdma", 0, 0, /*omit_at_default=*/true},
    {"fault_plans", nullptr, List(&S::fault_plans), "fault-plan axis (fault flags)", 0, 0,
     /*omit_at_default=*/true},
    {"repetitions", "--reps", &S::repetitions, "repetitions per grid point", 1, kIntMax},
    {"phase_offsets_ms", "--offsets", List(&S::phase_offsets_ms), "start phases, ms", 0, kMaxMs},
    {"seed", "--seed", &S::seed, "spec seed, decimal or 0x hex; run seeds derive from it"},
    // And below the smallest sites value, which Validate checks.
    {"library_site", "--lib", &S::library_site, "site that creates the segment", 0, 511},
    {"iterations", "--iters", &S::iterations, "read-writers loop iterations", 1, kIntMax},
    {"rounds", "--rounds", &S::rounds, "ping-pong and scalability rounds", 1, kIntMax},
    {"matrix_n", nullptr, &S::matrix_n, "matrix size n (n x n)", 1, kIntMax},
    {"dot_length", nullptr, &S::dot_length, "dot-product vector length", 1, kIntMax},
    {"tsp_cities", nullptr, &S::tsp_cities, "TSP cities", 2, kIntMax},
    {"with_background", nullptr, &S::with_background, "add a background compute process"},
    {"yield", "--no-yield", &S::use_yield, "spin loops yield(); the flag busy-waits"},
    {"parallel_lib", "--parallel-lib", &S::parallel_lib, "serve distinct pages concurrently"},
    {"baseline", "--li", &S::baseline, "run the Li/Hudak protocol, not Mirage"},
    {"max_time_s", "--max-time-s", &S::max_time_s, "simulated time cap, s", 1, kMaxMs / 1000},
    {"kv_keys", "--keys", &S::kv_keys, "kvstore key space", 1, 1 << 20},
    // A hash-map slot (key, version, value) must fit in one page.
    {"kv_value_words", nullptr, &S::kv_value_words, "kvstore value words", 1,
     mmem::kPageSize / 4.0 - 2},
    {"kv_arrival_per_s", "--rate", &S::kv_arrival_per_s, "kvstore arrivals per site and s",
     std::numeric_limits<double>::min(), kNumberMax},
    {"kv_ops_per_site", "--kvops", &S::kv_ops_per_site, "kvstore ops per site", 1, 1e7},
    {"kv_workers", nullptr, &S::kv_workers, "kvstore server workers per site", 1, kIntMax},
    {"kv_shards", nullptr, &S::kv_shards, "kvstore shards (0: one per site)", 0, 1 << 20},
};

template <typename T>
constexpr bool kIsList = requires { typename T::value_type; } && !std::is_same_v<T, std::string>;
// A number with a range: any arithmetic member but a bool and the seed.
template <typename T>
constexpr bool kNumeric =
    std::is_arithmetic_v<T> && !std::is_same_v<T, bool> && !std::is_same_v<T, std::uint64_t>;

// Calls fn(get), where get(spec) is a reference to f's member of spec (the
// whole std::vector for a list).
template <typename Fn>
decltype(auto) Visit(const SpecField& f, Fn&& fn) {
  return std::visit(
      [&fn](auto m) -> decltype(auto) {
        if constexpr (requires { m.values; }) {
          return fn([m](auto& spec) -> auto& { return spec.*(m.values); });
        } else {
          return fn([m](auto& spec) -> auto& { return spec.*m; });
        }
      },
      f.member);
}
template <typename Get>
using ValueOf = std::decay_t<std::invoke_result_t<Get, const ExperimentSpec&>>;

// Calls fn(values, run) for each axis, fastest-changing first: the reverse
// of table order.
template <typename Fn>
void ForEachAxis(Fn&& fn) {
  for (auto f = std::rbegin(kFields); f != std::rend(kFields); ++f) {
    std::visit(
        [&fn](auto m) {
          if constexpr (requires { m.run; }) {
            if (m.run != nullptr) {
              fn(m.values, m.run);
            }
          }
        },
        f->member);
  }
}

std::string Range(const SpecField& f) {
  return "[" + Json::NumberToString(f.min) + ", " + Json::NumberToString(f.max) + "]";
}

// What a value of f's member, of type T, must be.
template <typename T>
std::string Want(const SpecField& f) {
  if constexpr (std::is_same_v<T, std::vector<FaultPlanSpec>>) {
    return "a list of fault plans";
  } else if constexpr (kIsList<T>) {
    return "a non-empty list, each " + Want<typename T::value_type>(f);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    return "a 64-bit integer, decimal or 0x hex";
  } else if constexpr (kNumeric<T>) {
    return (std::is_integral_v<T> ? "an integer in " : "a number in ") + Range(f);
  } else {
    return std::is_same_v<T, bool> ? "true or false" : "a string";
  }
}

std::string Want(const SpecField& f) {
  return Visit(f, [&f](auto get) { return Want<ValueOf<decltype(get)>>(f); });
}

// Whether a number is a value of T (for an integer T: integral and in T's
// range), which it converts to. max() + 1.0 is a power of two, so it is
// exact where max() itself would round up to it.
template <typename T>
bool FromNumber(double v, T* out) {
  if (std::is_integral_v<T> &&
      !(v == std::trunc(v) && v >= static_cast<double>(std::numeric_limits<T>::min()) &&
        v < static_cast<double>(std::numeric_limits<T>::max()) + 1.0)) {
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

// A seed in decimal or in SeedString's hex; a double cannot hold every one.
bool ParseSeed(std::string_view text, std::uint64_t* out) {
  const bool hex = text.starts_with("0x") || text.starts_with("0X");
  const char* end = text.data() + text.size();
  const std::from_chars_result r =
      std::from_chars(text.data() + (hex ? 2 : 0), end, *out, hex ? 16 : 10);
  return r.ec == std::errc() && r.ptr == end;
}

// A flag value as the JSON that a spec file would hold for a T: a list is
// comma-separated, and an empty item or one that is no number where a
// number belongs becomes a null, which Decode rejects.
template <typename T>
Json FlagJson(std::string_view text) {
  if constexpr (kIsList<T>) {
    Json list = Json::Array();
    for (std::size_t begin = 0; begin <= text.size();) {
      const std::size_t comma = std::min(text.find(',', begin), text.size());
      const std::string_view item = text.substr(begin, comma - begin);
      list.Push(item.empty() ? Json() : FlagJson<typename T::value_type>(item));
      begin = comma + 1;
    }
    return list;
  } else if constexpr (kNumeric<T>) {
    double v = 0.0;
    return ParseNumber(text, &v) ? Json(v) : Json();
  } else {
    return Json(std::string(text));  // a string, or a seed
  }
}

// Every value of a number in [f.min, f.max], and at least one in a list
// (no fault plans is one implicit fault-free plan).
template <typename T>
bool InRange(const T& v, const SpecField& f) {
  if constexpr (kIsList<T>) {
    return (!v.empty() || std::is_same_v<T, std::vector<FaultPlanSpec>>) &&
           std::all_of(v.begin(), v.end(), [&f](const auto& x) { return InRange(x, f); });
  } else if constexpr (kNumeric<T>) {
    return static_cast<double>(v) >= f.min && static_cast<double>(v) <= f.max;
  } else {
    return true;
  }
}

// JSON "kind" names, indexed by mfault::FaultKind.
constexpr const char* kFaultKinds[] = {"crash", "pause", "resume", "cut", "heal", "recover"};

template <typename T>
Json Encode(const T& v) {
  if constexpr (kIsList<T>) {
    Json list = Json::Array();
    for (const auto& x : v) {
      list.Push(Encode(x));
    }
    return list;
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    return Json(SeedString(v));
  } else if constexpr (kNumeric<T>) {
    return Json(static_cast<double>(v));
  } else if constexpr (std::is_same_v<T, FaultPlanSpec>) {
    Json events = Json::Array();
    for (const mfault::FaultEvent& ev : v.plan.events()) {
      Json e = Json::Object();
      e.Set("kind", Json(kFaultKinds[static_cast<int>(ev.kind)]));
      e.Set("at_ms", Json(static_cast<double>(ev.at_us) / 1000.0));
      e.Set("site", Json(ev.site));
      if (ev.peer != mnet::kNoSite) {
        e.Set("peer", Json(ev.peer));
      }
      events.Push(std::move(e));
    }
    Json j = Json::Object();
    j.Set("name", Json(v.name));
    j.Set("events", std::move(events));
    return j;
  } else {
    return Json(v);
  }
}

bool FaultPlanFromJson(const Json& j, FaultPlanSpec* out, std::string* error);

// Reads j into *out if it is a value of T; *out may change either way. A
// fault plan says why not in *error; for the rest the caller says what the
// member wants.
template <typename T>
bool Decode(const Json& j, T* out, std::string* error) {
  if constexpr (kIsList<T>) {
    out->clear();
    for (const Json& x : j.items()) {
      if (!Decode(x, &out->emplace_back(), error)) {
        return false;
      }
    }
    return j.is_array();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    return j.is_string() ? ParseSeed(j.AsString(), out)
                         : j.is_number() && FromNumber(j.AsDouble(), out);
  } else if constexpr (kNumeric<T>) {
    return j.is_number() && FromNumber(j.AsDouble(), out);
  } else if constexpr (std::is_same_v<T, FaultPlanSpec>) {
    return FaultPlanFromJson(j, out, error);
  } else if constexpr (std::is_same_v<T, bool>) {
    *out = j.AsBool();
    return j.is_bool();
  } else {
    *out = j.AsString();
    return j.is_string();
  }
}

// Whether j is an object whose members are all in `known`; else names the
// first other one in *error.
bool KnownMembers(const Json& j, std::initializer_list<std::string_view> known,
                  std::string* error) {
  for (const auto& [name, value] : j.members()) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      *error = "unknown member '" + name + "'";
      return false;
    }
  }
  return j.is_object();
}

// Reads member `key` of object j, if present, into *out.
template <typename T>
bool ReadMember(const Json& j, const char* key, T* out, std::string* error) {
  const Json* v = j.Find(key);
  return v == nullptr || Decode(*v, out, error);
}

bool FaultPlanFromJson(const Json& j, FaultPlanSpec* out, std::string* error) {
  out->name = "plan";
  out->plan = mfault::FaultPlan();
  const Json none = Json::Array();
  const Json* events = j.Find("events") != nullptr ? j.Find("events") : &none;
  bool ok = ReadMember(j, "name", &out->name, error) &&
            KnownMembers(j, {"name", "events"}, error) && events->is_array();
  for (const Json& e : events->items()) {
    std::string kind;
    double at_ms = 0.0;
    int site = -1, peer = -1;
    ok = ok && KnownMembers(e, {"kind", "at_ms", "site", "peer"}, error) &&
         ReadMember(e, "kind", &kind, error) && ReadMember(e, "at_ms", &at_ms, error) &&
         ReadMember(e, "site", &site, error) && ReadMember(e, "peer", &peer, error);
    if (ok && !(at_ms >= 0 && at_ms <= kMaxMs)) {
      *error = kind + " event at_ms must be a number in [0, " + Json::NumberToString(kMaxMs) +
               "], not " + Json::NumberToString(at_ms);
      ok = false;
    }
    if (!ok) {
      break;
    }
    const msim::Time at = static_cast<msim::Time>(at_ms * msim::kMillisecond);
    using mfault::FaultKind;
    switch (static_cast<FaultKind>(std::find(kFaultKinds, std::end(kFaultKinds), kind) -
                                   kFaultKinds)) {
      case FaultKind::kCrashSite: out->plan.CrashAt(at, site); break;
      case FaultKind::kPauseSite: out->plan.PauseAt(at, site); break;
      case FaultKind::kResumeSite: out->plan.ResumeAt(at, site); break;
      case FaultKind::kPartitionLink: out->plan.PartitionAt(at, site, peer); break;
      case FaultKind::kHealLink: out->plan.HealAt(at, site, peer); break;
      case FaultKind::kRecoverSite: out->plan.RecoverAt(at, site); break;
      default: *error = "unknown fault kind '" + kind + "'"; ok = false;
    }
  }
  if (!ok) {
    *error = "fault plan '" + out->name + "': " +
             (error->empty() ? "want a name and events of kind, at_ms, site and peer" : *error);
  }
  return ok;
}

// The row whose name (or flag) is `key`, or null.
const SpecField* FindField(const char* SpecField::*column, std::string_view key) {
  const auto* f = std::find_if(std::begin(kFields), std::end(kFields), [&](const SpecField& row) {
    return row.*column != nullptr && key == row.*column;
  });
  return f == std::end(kFields) ? nullptr : f;
}

}  // namespace

template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), end, v);
  return r.ec == std::errc() && r.ptr == end && FromNumber(v, out);
}
template bool ParseNumber(std::string_view, int*);
template bool ParseNumber(std::string_view, double*);

std::span<const SpecField> SpecFields() { return kFields; }

int ExperimentSpec::PointCount() const {
  std::size_t points = fault_plans.empty() ? 1 : fault_plans.size();
  ForEachAxis([this, &points](auto values, auto) { points *= (this->*values).size(); });
  return static_cast<int>(points);
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
    // first: the fault plan, then the rest in reverse table order.
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
    ForEachAxis([&](auto values, auto run) { cfg.*run = pick(this->*values); });
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

Json ExperimentSpec::ToJson() const {
  const ExperimentSpec defaults;
  Json j = Json::Object();
  for (const SpecField& f : kFields) {
    Visit(f, [&](auto get) {
      Json value = Encode(get(*this));
      if (!f.omit_at_default || value.ToString() != Encode(get(defaults)).ToString()) {
        j.Set(f.name, std::move(value));
      }
    });
  }
  return j;
}

bool ExperimentSpec::FromJson(const Json& j, ExperimentSpec* out, std::string* error) {
  if (!j.is_object()) {
    *error = "spec must be a JSON object";
    return false;
  }
  ExperimentSpec spec;
  for (const auto& [key, value] : j.members()) {
    const SpecField* f = FindField(&SpecField::name, key);
    if (f == nullptr) {
      *error = "unknown spec member '" + key + "'";
      return false;
    }
    std::string why;
    if (!Visit(*f, [&](auto get) { return Decode(value, &get(spec), &why); })) {
      *error = why.empty() ? key + " must be " + Want(*f) + ", not " + value.ToString() : why;
      return false;
    }
  }
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
  for (const SpecField& f : kFields) {
    if (!Visit(f, [&](auto get) { return InRange(get(*this), f); })) {
      return fail(std::string(f.name) + " must be " + Want(f));
    }
  }
  if (!KnownWorkload(workload)) {
    return fail("unknown workload '" + workload + "'");
  }
  for (const std::string& cp : cost_presets) {
    mnet::CostModel unused;
    if (!mnet::CostModel::FromName(cp, &unused)) {
      return fail("unknown cost preset '" + cp + "' (ethernet1989, rdma)");
    }
  }
  // Sites are numbered from 0, and every point of the grid must have the
  // sites that the library placement and the fault plans name.
  const int min_sites = *std::min_element(sites.begin(), sites.end());
  if (library_site >= min_sites) {
    return fail("library_site must be below the smallest sites value, " +
                std::to_string(min_sites));
  }
  for (const FaultPlanSpec& fp : fault_plans) {
    std::string why;
    if (!fp.plan.Validate(min_sites, &why)) {
      return fail("fault plan '" + fp.name + "': " + why);
    }
  }
  return true;
}

bool ApplyFlag(const std::string& arg, ExperimentSpec* spec, std::string* error) {
  const std::size_t eq = arg.find('=');
  const std::string flag = arg.substr(0, eq);
  const SpecField* f = FindField(&SpecField::flag, flag);
  if (f == nullptr) {
    *error = "unknown argument '" + arg + "'";
    return false;
  }
  error->clear();
  Visit(*f, [&](auto get) {
    using V = ValueOf<decltype(get)>;
    if constexpr (std::is_same_v<V, bool>) {
      const ExperimentSpec defaults;
      get(*spec) = !get(defaults);
      if (eq != std::string::npos) {
        *error = "bad argument '" + arg + "': " + flag + " sets " + f->name + " and takes no value";
      }
    } else if (eq == std::string::npos ||
               !Decode(FlagJson<V>(std::string_view(arg).substr(eq + 1)), &get(*spec), error)) {
      *error = "bad argument '" + arg + "': " + f->name + " must be " + Want<V>(*f);
    }
  });
  return error->empty();
}

std::string Usage() {
  std::string out =
      "spec members: the JSON name, the flag (=V, =V,V,... for a list, no value for a\n"
      "switch), the meaning and the range:\n";
  for (const SpecField& f : kFields) {
    char line[200];
    const std::string range = f.numeric() ? Range(f) : "";
    std::snprintf(line, sizeof(line), "  %-17s %-15s %s%s%s\n", f.name, f.flag ? f.flag : "",
                  f.help, range.empty() ? "" : " ", range.c_str());
    out += line;
  }
  return out;
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
