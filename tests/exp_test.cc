// Tests for the experiment harness: spec expansion, validation and seed
// derivation, JSON round trips, streaming statistics, the parallel runner's
// determinism across thread counts, and the one-run report path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/exp/report.h"
#include "src/exp/runner.h"
#include "src/exp/spec.h"
#include "src/exp/stats.h"
#include "src/sysv/world.h"

namespace {

// Two values on each of the eleven axes: bit k of the point index picks
// axis k's value, counting from the fault plan (bit 0, fastest) up to sites
// (bit 10, slowest). Repetitions are contiguous and innermost, and every run
// carries the spec's tunables and the seed of its run index.
TEST(ExperimentSpec, ExpandIsGridTimesRepsInFixedOrder) {
  mexp::ExperimentSpec spec;
  spec.sites = {2, 4};
  spec.delta_ms = {0, 100};
  spec.quantum_ticks = {6, 3};
  spec.segment_bytes = {512, 1024};
  spec.loss = {0.0, 0.5};
  spec.replicas = {1, 2};
  spec.zipf_s = {0.0, 0.9};
  spec.get_mix = {0.95, 0.5};
  spec.kv_replicas = {1, 2};
  spec.cost_presets = {"ethernet1989", "rdma"};
  mexp::FaultPlanSpec crash;
  crash.name = "crash";
  crash.plan.CrashAt(50 * msim::kMillisecond, 1);
  spec.fault_plans = {mexp::FaultPlanSpec{}, crash};
  spec.repetitions = 3;
  spec.seed = 7;
  spec.rounds = 5;
  spec.kv_keys = 64;
  spec.max_time_s = 30;
  EXPECT_EQ(spec.PointCount(), 2048);
  const std::vector<mexp::RunConfig> runs = spec.Expand();
  ASSERT_EQ(runs.size(), 3u * 2048u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const mexp::RunConfig& r = runs[i];
    const int index = static_cast<int>(i);
    const int point = index / 3;
    auto bit = [point](int k) { return static_cast<std::size_t>((point >> k) & 1); };
    ASSERT_EQ(r.point, point);
    ASSERT_EQ(r.rep, index % 3);
    ASSERT_EQ(r.run_index, index);
    ASSERT_EQ(r.seed, mexp::ExperimentSpec::DeriveSeed(7, index));
    ASSERT_TRUE(static_cast<const mexp::Tunables&>(r) ==
                static_cast<const mexp::Tunables&>(spec)) << i;
    ASSERT_EQ(r.fault_plan, spec.fault_plans[bit(0)].name) << i;
    ASSERT_EQ(r.faults.events().size(), bit(0)) << i;
    ASSERT_EQ(r.cost_preset, spec.cost_presets[bit(1)]) << i;
    ASSERT_EQ(r.kv_replicas, spec.kv_replicas[bit(2)]) << i;
    ASSERT_EQ(r.get_mix, spec.get_mix[bit(3)]) << i;
    ASSERT_EQ(r.zipf_s, spec.zipf_s[bit(4)]) << i;
    ASSERT_EQ(r.replicas, spec.replicas[bit(5)]) << i;
    ASSERT_EQ(r.loss, spec.loss[bit(6)]) << i;
    ASSERT_EQ(r.segment_bytes, spec.segment_bytes[bit(7)]) << i;
    ASSERT_EQ(r.quantum_ticks, spec.quantum_ticks[bit(8)]) << i;
    ASSERT_EQ(r.delta_ms, spec.delta_ms[bit(9)]) << i;
    ASSERT_EQ(r.sites, spec.sites[bit(10)]) << i;
  }
}

TEST(ExperimentSpec, DerivedSeedsAreStableAndDistinct) {
  std::uint64_t s0 = mexp::ExperimentSpec::DeriveSeed(1, 0);
  std::uint64_t s1 = mexp::ExperimentSpec::DeriveSeed(1, 1);
  EXPECT_NE(s0, s1);
  EXPECT_EQ(s0, mexp::ExperimentSpec::DeriveSeed(1, 0));  // pure function
  // The expansion installs exactly these seeds.
  mexp::ExperimentSpec spec;
  spec.repetitions = 2;
  std::vector<mexp::RunConfig> runs = spec.Expand();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].seed, s0);
  EXPECT_EQ(runs[1].seed, s1);
}

TEST(ExperimentSpec, PhaseOffsetsCycleThroughRepetitions) {
  mexp::ExperimentSpec spec;
  spec.repetitions = 4;
  spec.phase_offsets_ms = {0, 170, 410};
  std::vector<mexp::RunConfig> runs = spec.Expand();
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].start_offset_us, 0);
  EXPECT_EQ(runs[1].start_offset_us, 170 * msim::kMillisecond);
  EXPECT_EQ(runs[2].start_offset_us, 410 * msim::kMillisecond);
  EXPECT_EQ(runs[3].start_offset_us, 0);  // wraps
}

// Every spec field is set away from its default, and the spec survives
// ToJson -> FromJson -> ToJson byte for byte.
TEST(ExperimentSpec, JsonRoundTripPreservesGridAndSeed) {
  mexp::ExperimentSpec spec;
  spec.name = "roundtrip";
  spec.workload = "scalability";
  spec.sites = {3, 6, 12};  // the fault plan below names sites 1 and 2
  spec.delta_ms = {10, 50};
  spec.quantum_ticks = {3, 9};
  spec.segment_bytes = {1024};
  spec.loss = {0.0, 0.02};
  spec.replicas = {1, 3};
  spec.zipf_s = {0.5, 1.1};
  spec.get_mix = {0.25};
  spec.kv_replicas = {2};
  spec.cost_presets = {"rdma", "ethernet1989"};
  mexp::FaultPlanSpec fp;
  fp.name = "crash1";
  fp.plan.CrashAt(50 * msim::kMillisecond, 1);
  fp.plan.PartitionAt(100 * msim::kMillisecond, 0, 2);
  fp.plan.RecoverAt(150 * msim::kMillisecond, 1);
  fp.plan.PauseAt(200 * msim::kMillisecond, 2);
  fp.plan.ResumeAt(300 * msim::kMillisecond, 2);
  fp.plan.HealAt(400 * msim::kMillisecond, 0, 2);
  spec.fault_plans.push_back(fp);
  spec.repetitions = 2;
  spec.phase_offsets_ms = {5, 170};
  spec.seed = 0xDEADBEEFCAFEF00DULL;
  spec.library_site = 2;
  spec.iterations = 1234;
  spec.rounds = 5;
  spec.matrix_n = 16;
  spec.dot_length = 512;
  spec.tsp_cities = 6;
  spec.with_background = true;
  spec.use_yield = false;
  spec.parallel_lib = true;
  spec.baseline = true;
  spec.max_time_s = 45;
  spec.kv_keys = 64;
  spec.kv_value_words = 8;
  spec.kv_arrival_per_s = 240.5;
  spec.kv_ops_per_site = 77;
  spec.kv_workers = 2;
  spec.kv_shards = 3;

  const std::string text = spec.ToJson().ToString();
  std::string error;
  mexp::Json parsed = mexp::Json::Parse(text, &error);
  ASSERT_TRUE(error.empty()) << error;
  // Every member differs from the default spec's, so no field can pass the
  // round trip by falling back to its default.
  const mexp::Json defaults = mexp::ExperimentSpec().ToJson();
  EXPECT_EQ(parsed.size(), defaults.size() + 2);  // + cost_presets, fault_plans
  for (const auto& [key, value] : defaults.members()) {
    const mexp::Json* set = parsed.Find(key);
    ASSERT_NE(set, nullptr) << key;
    EXPECT_NE(set->ToString(), value.ToString()) << key;
  }
  mexp::ExperimentSpec back;
  ASSERT_TRUE(mexp::ExperimentSpec::FromJson(parsed, &back, &error)) << error;
  EXPECT_EQ(back.ToJson().ToString(), text);
  EXPECT_TRUE(static_cast<const mexp::Tunables&>(back) ==
              static_cast<const mexp::Tunables&>(spec));
  EXPECT_EQ(back.seed, spec.seed);  // hex-string seeds survive exactly
  // Fault plans survive exactly: the failover experiments depend on the
  // crash hitting the same site at the same tick after a round-trip.
  ASSERT_EQ(back.fault_plans.size(), 1u);
  const std::vector<mfault::FaultEvent>& events = back.fault_plans[0].plan.events();
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].kind, mfault::FaultKind::kCrashSite);
  EXPECT_EQ(events[0].at_us, 50 * msim::kMillisecond);
  EXPECT_EQ(events[0].site, 1);
  EXPECT_EQ(events[5].kind, mfault::FaultKind::kHealLink);
  EXPECT_EQ(events[5].peer, 2);
  // And the round-tripped spec expands to the same runs.
  EXPECT_EQ(back.Expand().size(), spec.Expand().size());
  EXPECT_EQ(back.Expand()[3].seed, spec.Expand()[3].seed);
}

// Each bad spec is rejected with an error that names the member at fault:
// values outside a range or of another type, and unknown members at the top
// level, in a fault plan and in a fault event.
TEST(ExperimentSpec, FromJsonRejectsBadInput) {
  const std::pair<const char*, const char*> cases[] = {
      {R"({"sites": []})", "sites"},
      {R"({"sites": [1000]})", "sites"},
      {R"({"sites": [2.7]})", "sites"},
      {R"({"repetitions": 0})", "repetitions"},
      {R"({"cost_presets": ["token-ring"]})", "token-ring"},
      {R"({"rounds": "3"})", "rounds"},
      {R"({"with_background": 1})", "with_background"},
      {R"({"iterations": 4294967297})", "iterations"},
      {R"({"seed": "0x12z"})", "seed"},
      {R"({"workload": "pingpong", "sites": [2], "round": 3})", "round"},
      {R"({"fault_plans": [{"name": "p", "evnts": []}]})", "evnts"},
      {R"({"sites": [3], "fault_plans": [{"name": "p",)"
       R"( "events": [{"kind": "crash", "at": 50, "site": 2}]}]})",
       "'at'"},
      {R"({"fault_plans": [{"name": "p", "events": [{"kind": "crash", "site": "1"}]}]})", "p"},
      // An event time outside [0, 10^15] ms, checked before it becomes µs.
      {R"({"sites": [3], "fault_plans": [{"name": "p",)"
       R"( "events": [{"kind": "crash", "at_ms": 1e300, "site": 2}]}]})",
       "crash event at_ms"},
      {R"({"sites": [3], "fault_plans": [{"name": "p",)"
       R"( "events": [{"kind": "crash", "at_ms": -5, "site": 2}]}]})",
       "crash event at_ms"},
  };
  for (const auto& [text, named] : cases) {
    std::string error;
    const mexp::Json bad = mexp::Json::Parse(text, &error);
    ASSERT_TRUE(error.empty()) << text;
    mexp::ExperimentSpec out;
    EXPECT_FALSE(mexp::ExperimentSpec::FromJson(bad, &out, &error)) << text;
    EXPECT_NE(error.find(named), std::string::npos) << text << ": " << error;
  }
}

// Driven by SpecFields() itself, so a new row is covered with no edit here.
// Each numeric row's min and max pass through a flag and a spec file;
// values just outside them, and a non-number, fail through both with the
// member named; every flag is in the usage text. An unknown member or flag
// fails too.
TEST(ExperimentSpec, EverySpecFieldTakesItsRangeFromFlagsAndFiles) {
  // A spec of 512 sites, so that every library_site in range names a site.
  auto from_flag = [](const mexp::SpecField& f, const std::string& value, std::string* error) {
    mexp::ExperimentSpec spec;
    spec.sites = {512};
    return mexp::ApplyFlag(std::string(f.flag) + "=" + value, &spec, error) &&
           spec.Validate(error);
  };
  const mexp::Json defaults = mexp::ExperimentSpec().ToJson();
  auto from_file = [&defaults](const mexp::SpecField& f, mexp::Json value, std::string* error) {
    mexp::Json j = mexp::Json::Object();
    j.Set("sites", mexp::Json(mexp::JsonArray{mexp::Json(512)}));
    j.Set(f.name, defaults.Find(f.name)->is_array() ? mexp::Json(mexp::JsonArray{value}) : value);
    mexp::ExperimentSpec spec;
    return mexp::ExperimentSpec::FromJson(j, &spec, error);
  };
  const std::string usage = mexp::Usage();
  int numeric = 0;
  for (const mexp::SpecField& f : mexp::SpecFields()) {
    if (f.flag != nullptr) {
      EXPECT_NE(usage.find(f.flag), std::string::npos) << f.name;
    }
    if (!f.numeric()) {
      continue;
    }
    ++numeric;
    std::string error;
    for (double v : {f.min, f.max}) {
      const std::string text = mexp::Json::NumberToString(v);
      EXPECT_TRUE(f.flag == nullptr || from_flag(f, text, &error)) << f.name << "=" << text << ": "
                                                                   << error;
      EXPECT_TRUE(from_file(f, mexp::Json(v), &error)) << f.name << "=" << text << ": " << error;
    }
    const double inf = std::numeric_limits<double>::infinity();
    for (double v :
         {std::nextafter(f.min, -inf), f.min - 1, std::nextafter(f.max, inf), f.max + 1}) {
      if (v >= f.min && v <= f.max) {
        continue;  // max + 1 rounds back to max when max is the largest double
      }
      const std::string text = mexp::Json::NumberToString(v);
      if (f.flag != nullptr) {
        error.clear();
        EXPECT_FALSE(from_flag(f, text, &error)) << f.name << "=" << text;
        EXPECT_NE(error.find(f.name), std::string::npos) << f.name << "=" << text << ": " << error;
      }
      error.clear();
      EXPECT_FALSE(from_file(f, mexp::Json(v), &error)) << f.name << "=" << text;
      EXPECT_NE(error.find(f.name), std::string::npos) << f.name << "=" << text << ": " << error;
    }
    if (f.flag != nullptr) {
      error.clear();
      EXPECT_FALSE(from_flag(f, "abc", &error)) << f.name;
      EXPECT_NE(error.find(f.name), std::string::npos) << error;
    }
    error.clear();
    EXPECT_FALSE(from_file(f, mexp::Json("abc"), &error)) << f.name;
    EXPECT_NE(error.find(f.name), std::string::npos) << error;
  }
  EXPECT_GT(numeric, 20);

  std::string error;
  mexp::Json unknown = mexp::Json::Object();
  unknown.Set("round", mexp::Json(3));
  mexp::ExperimentSpec spec;
  EXPECT_FALSE(mexp::ExperimentSpec::FromJson(unknown, &spec, &error));
  EXPECT_NE(error.find("'round'"), std::string::npos) << error;
  EXPECT_FALSE(mexp::ApplyFlag("--round=3", &spec, &error));
  EXPECT_NE(error.find("--round=3"), std::string::npos) << error;
  EXPECT_FALSE(mexp::ApplyFlag("--li=1", &spec, &error));  // a switch takes no value
  EXPECT_FALSE(mexp::ApplyFlag("--seed=-1", &spec, &error));
  ASSERT_TRUE(mexp::ApplyFlag("--seed=0x2a", &spec, &error)) << error;
  EXPECT_EQ(spec.seed, 42u);
  ASSERT_TRUE(mexp::ApplyFlag("--li", &spec, &error)) << error;
  ASSERT_TRUE(mexp::ApplyFlag("--no-yield", &spec, &error)) << error;
  EXPECT_TRUE(spec.baseline);
  EXPECT_FALSE(spec.use_yield);
  ASSERT_TRUE(mexp::ApplyFlag("--cost=rdma,ethernet1989", &spec, &error)) << error;
  EXPECT_EQ(spec.cost_presets, (std::vector<std::string>{"rdma", "ethernet1989"}));
  EXPECT_FALSE(mexp::ApplyFlag("--cost=rdma,", &spec, &error));  // an empty item
}

// CLI flags and --spec files pass the same checks: each bad value is
// rejected by Validate on a built spec and by FromJson on the same value.
TEST(ExperimentSpec, ValidateRejectsOutOfRangeValuesFromFlagsAndFiles) {
  struct Case {
    const char* json;
    void (*apply)(mexp::ExperimentSpec*);
  };
  const Case cases[] = {
      {R"({"get_mix": [1.5]})", [](mexp::ExperimentSpec* s) { s->get_mix = {1.5}; }},
      {R"({"replicas": [40]})", [](mexp::ExperimentSpec* s) { s->replicas = {40}; }},
      {R"({"sites": [0]})", [](mexp::ExperimentSpec* s) { s->sites = {0}; }},
      {R"({"kv_replicas": [0]})", [](mexp::ExperimentSpec* s) { s->kv_replicas = {0}; }},
      {R"({"zipf_s": [-1]})", [](mexp::ExperimentSpec* s) { s->zipf_s = {-1.0}; }},
      {R"({"loss": [1.5]})", [](mexp::ExperimentSpec* s) { s->loss = {1.5}; }},
      {R"({"loss": [-0.2]})", [](mexp::ExperimentSpec* s) { s->loss = {-0.2}; }},
      {R"({"repetitions": 0})", [](mexp::ExperimentSpec* s) { s->repetitions = 0; }},
      {R"({"workload": "bogus"})", [](mexp::ExperimentSpec* s) { s->workload = "bogus"; }},
      {R"({"cost_presets": ["token-ring"]})",
       [](mexp::ExperimentSpec* s) { s->cost_presets = {"token-ring"}; }},
      {R"({"fault_plans": [{"name": "p",)"
       R"( "events": [{"kind": "recover", "at_ms": 5, "site": 1}]}]})",
       [](mexp::ExperimentSpec* s) {
         mexp::FaultPlanSpec fp;
         fp.plan.RecoverAt(5 * msim::kMillisecond, 1);  // never crashed
         s->fault_plans = {fp};
       }},
      // Every event must change something when it fires: this link was
      // never cut and this site never paused.
      {R"({"fault_plans": [{"name": "p", "events": [)"
       R"({"kind": "heal", "at_ms": 5, "site": 0, "peer": 1},)"
       R"( {"kind": "resume", "at_ms": 6, "site": 1}]}]})",
       [](mexp::ExperimentSpec* s) {
         mexp::FaultPlanSpec fp;
         fp.plan.HealAt(5 * msim::kMillisecond, 0, 1).ResumeAt(6 * msim::kMillisecond, 1);
         s->fault_plans = {fp};
       }},
      // Sites a fault plan names must exist at every point: the default
      // sites axis is {2}.
      {R"({"fault_plans": [{"name": "p",)"
       R"( "events": [{"kind": "crash", "at_ms": 50, "site": 7}]}]})",
       [](mexp::ExperimentSpec* s) {
         mexp::FaultPlanSpec fp;
         fp.plan.CrashAt(50 * msim::kMillisecond, 7);
         s->fault_plans = {fp};
       }},
      {R"({"fault_plans": [{"name": "p",)"
       R"( "events": [{"kind": "crash", "at_ms": 50, "site": -1}]}]})",
       [](mexp::ExperimentSpec* s) {
         mexp::FaultPlanSpec fp;
         fp.plan.CrashAt(50 * msim::kMillisecond, -1);
         s->fault_plans = {fp};
       }},
      {R"({"sites": [4, 2], "fault_plans": [{"name": "p", "events":)"
       R"( [{"kind": "cut", "at_ms": 5, "site": 0, "peer": 3}]}]})",
       [](mexp::ExperimentSpec* s) {
         s->sites = {4, 2};
         mexp::FaultPlanSpec fp;
         fp.plan.PartitionAt(5 * msim::kMillisecond, 0, 3);
         s->fault_plans = {fp};
       }},
      {R"({"library_site": 9})", [](mexp::ExperimentSpec* s) { s->library_site = 9; }},
      {R"({"library_site": -1})", [](mexp::ExperimentSpec* s) { s->library_site = -1; }},
      {R"({"sites": [4, 2], "library_site": 3})",
       [](mexp::ExperimentSpec* s) {
         s->sites = {4, 2};
         s->library_site = 3;
       }},
      // Values a run cannot use: an empty key space or value, a tour of
      // fewer than two cities and a zero or negative arrival rate crash or
      // misbehave; a zero time cap runs nothing; a negative Delta runs at 0.
      {R"({"kv_keys": 0})", [](mexp::ExperimentSpec* s) { s->kv_keys = 0; }},
      {R"({"kv_value_words": 0})", [](mexp::ExperimentSpec* s) { s->kv_value_words = 0; }},
      {R"({"tsp_cities": 0})", [](mexp::ExperimentSpec* s) { s->tsp_cities = 0; }},
      {R"({"tsp_cities": 1})", [](mexp::ExperimentSpec* s) { s->tsp_cities = 1; }},
      {R"({"kv_arrival_per_s": 0})", [](mexp::ExperimentSpec* s) { s->kv_arrival_per_s = 0.0; }},
      {R"({"kv_arrival_per_s": -5})",
       [](mexp::ExperimentSpec* s) { s->kv_arrival_per_s = -5.0; }},
      {R"({"max_time_s": 0})", [](mexp::ExperimentSpec* s) { s->max_time_s = 0; }},
      {R"({"delta_ms": [0, -50]})", [](mexp::ExperimentSpec* s) { s->delta_ms = {0, -50}; }},
      // Sizes past what a run can allocate, as a negative flag value wraps
      // to: --keys=-1, --kvops=-1 and --segbytes=-1 all read 4294967295.
      {R"({"kv_keys": -1})", [](mexp::ExperimentSpec* s) { s->kv_keys = 4294967295u; }},
      {R"({"kv_keys": 1048577})", [](mexp::ExperimentSpec* s) { s->kv_keys = 1048577; }},
      {R"({"kv_ops_per_site": -1})",
       [](mexp::ExperimentSpec* s) { s->kv_ops_per_site = 4294967295u; }},
      {R"({"segment_bytes": [512, 4294967295]})",
       [](mexp::ExperimentSpec* s) { s->segment_bytes = {512, 4294967295u}; }},
      {R"({"segment_bytes": [0]})", [](mexp::ExperimentSpec* s) { s->segment_bytes = {0}; }},
      {R"({"kv_shards": -1})", [](mexp::ExperimentSpec* s) { s->kv_shards = 4294967295u; }},
      // A hash-map slot of 127 value words no longer fits one page.
      {R"({"kv_value_words": 127})", [](mexp::ExperimentSpec* s) { s->kv_value_words = 127; }},
      // Sizes of zero or less run nothing, or run a quantum of no length,
      // and a negative phase offset is silently taken as zero.
      {R"({"iterations": 0})", [](mexp::ExperimentSpec* s) { s->iterations = 0; }},
      {R"({"rounds": -3})", [](mexp::ExperimentSpec* s) { s->rounds = -3; }},
      {R"({"kv_workers": 0})", [](mexp::ExperimentSpec* s) { s->kv_workers = 0; }},
      {R"({"kv_ops_per_site": 0})", [](mexp::ExperimentSpec* s) { s->kv_ops_per_site = 0; }},
      {R"({"quantum_ticks": [6, 0]})", [](mexp::ExperimentSpec* s) { s->quantum_ticks = {6, 0}; }},
      {R"({"matrix_n": 0})", [](mexp::ExperimentSpec* s) { s->matrix_n = 0; }},
      {R"({"dot_length": 0})", [](mexp::ExperimentSpec* s) { s->dot_length = 0; }},
      {R"({"phase_offsets_ms": [-500]})",
       [](mexp::ExperimentSpec* s) { s->phase_offsets_ms = {-500}; }},
  };
  std::string error;
  EXPECT_TRUE(mexp::ExperimentSpec().Validate(&error)) << error;
  for (const Case& c : cases) {
    mexp::ExperimentSpec built;
    c.apply(&built);
    error.clear();
    EXPECT_FALSE(built.Validate(&error)) << c.json;
    EXPECT_FALSE(error.empty()) << c.json;

    mexp::ExperimentSpec parsed;
    mexp::Json j = mexp::Json::Parse(c.json, &error);
    ASSERT_TRUE(error.empty()) << c.json << ": " << error;
    EXPECT_FALSE(mexp::ExperimentSpec::FromJson(j, &parsed, &error)) << c.json;
    EXPECT_FALSE(error.empty()) << c.json;
  }
  mexp::ExperimentSpec empty_axis;
  empty_axis.delta_ms.clear();
  EXPECT_FALSE(empty_axis.Validate(&error));
  mexp::ExperimentSpec nan_rate;  // --rate=nan; JSON has no NaN
  nan_rate.kv_arrival_per_s = std::nan("");
  EXPECT_FALSE(nan_rate.Validate(&error));
}

// Presets validate, and the spec that each preset's report embeds parses
// back to the same bytes.
TEST(ExperimentSpec, PresetsAreValidAndNamed) {
  for (const char* name : {"fig8", "amelioration", "scalematrix", "availability", "kvstore"}) {
    std::optional<mexp::ExperimentSpec> spec = mexp::Preset(name);
    ASSERT_TRUE(spec.has_value()) << name;
    EXPECT_EQ(spec->name, name);
    std::string error;
    EXPECT_TRUE(spec->Validate(&error)) << name << ": " << error;
    const std::string text = spec->ToJson().ToString();
    mexp::ExperimentSpec back;
    ASSERT_TRUE(mexp::ExperimentSpec::FromJson(mexp::Json::Parse(text, &error), &back, &error))
        << name << ": " << error;
    EXPECT_EQ(back.ToJson().ToString(), text) << name;
  }
  EXPECT_FALSE(mexp::Preset("fig9").has_value());
}

TEST(ExperimentRunner, ThreadsDefaultsToHardwareConcurrencyAndKeepsAnExplicitCount) {
  EXPECT_EQ(mexp::ExperimentRunner(3).threads(), 3);
  const unsigned hw = std::thread::hardware_concurrency();
  const int expected = hw == 0 ? 1 : static_cast<int>(hw);
  EXPECT_EQ(mexp::ExperimentRunner().threads(), expected);
  EXPECT_EQ(mexp::ExperimentRunner(-2).threads(), expected);
}

TEST(EngineStats, AccumulateAddsCountersAndMaxesQueuePeak) {
  mirage::EngineStats a;
  a.read_faults = 3;
  a.pages_lost_in_recovery = 1;
  a.lib_queue_depth_sum = 10;
  a.lib_queue_peak = 4;
  mirage::EngineStats b;
  b.read_faults = 2;
  b.rejoin_welcomes = 5;
  b.lib_queue_depth_sum = 7;
  b.lib_queue_peak = 2;
  a += b;
  EXPECT_EQ(a.read_faults, 5u);
  EXPECT_EQ(a.pages_lost_in_recovery, 1u);
  EXPECT_EQ(a.rejoin_welcomes, 5u);
  EXPECT_EQ(a.lib_queue_depth_sum, 17u);
  EXPECT_EQ(a.lib_queue_peak, 4u);  // a high-water mark: max, not sum
}

TEST(Json, ParseDumpRoundTrip) {
  std::string error;
  mexp::Json j = mexp::Json::Parse(
      R"({"a": 1, "b": [1.5, "x\n", true, null], "c": {"nested": -2e3}})", &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(j.GetInt("a", 0), 1);
  const mexp::Json* b = j.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->items().size(), 4u);
  EXPECT_DOUBLE_EQ(b->items()[0].AsDouble(), 1.5);
  EXPECT_EQ(b->items()[1].AsString(), "x\n");
  EXPECT_TRUE(b->items()[2].AsBool());
  EXPECT_TRUE(b->items()[3].is_null());
  EXPECT_DOUBLE_EQ(j.Find("c")->GetDouble("nested", 0), -2000.0);
  // Dump -> parse -> dump is a fixed point.
  std::string once = j.ToString();
  mexp::Json again = mexp::Json::Parse(once, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(again.ToString(), once);
}

TEST(Json, ParseReportsErrors) {
  std::string error;
  mexp::Json j = mexp::Json::Parse("{\"a\": }", &error);
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(j.is_null());
  mexp::Json::Parse("[1, 2", &error);
  EXPECT_FALSE(error.empty());
}

TEST(StatsAccumulator, MomentsAndConfidenceInterval) {
  mexp::StatsAccumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    acc.Add(x);
  }
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.Min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.Max(), 9.0);
  EXPECT_NEAR(acc.StdDev(), std::sqrt(32.0 / 7.0), 1e-12);
  // t(7, 0.975) = 2.365
  EXPECT_NEAR(acc.Ci95HalfWidth(), 2.365 * acc.StdDev() / std::sqrt(8.0), 1e-9);
  mexp::StatsAccumulator empty;
  EXPECT_EQ(empty.Mean(), 0.0);
  EXPECT_EQ(empty.StdDev(), 0.0);
  EXPECT_EQ(empty.Ci95HalfWidth(), 0.0);
}

// The acceptance property: a grid run on 8 worker threads emits exactly the
// bytes of the single-threaded run — merge order is spec order, never
// completion order.
TEST(ExperimentRunner, ReportBytesIdenticalAcrossThreadCounts) {
  mexp::ExperimentSpec spec;
  spec.name = "determinism";
  spec.workload = "pingpong";
  spec.sites = {2, 3};
  spec.delta_ms = {0, 17};
  spec.loss = {0.0, 0.1};  // exercises the seeded lossy-circuit path too
  spec.rounds = 6;
  spec.repetitions = 2;
  spec.max_time_s = 300;

  std::string one = mexp::ReportToJson(mexp::ExperimentRunner(1).Run(spec)).ToString();
  std::string eight = mexp::ReportToJson(mexp::ExperimentRunner(8).Run(spec)).ToString();
  EXPECT_EQ(one, eight);
  EXPECT_FALSE(one.empty());
}

// Same property for the kvstore workload, whose runs thread kv-specific axes
// (zipf_s, get_mix, kv_replicas) through point keys and metrics.
TEST(ExperimentRunner, KvstoreReportBytesIdenticalAcrossThreadCounts) {
  mexp::ExperimentSpec spec;
  spec.name = "kv-determinism";
  spec.workload = "kvstore";
  spec.sites = {2};
  spec.delta_ms = {0};
  spec.zipf_s = {1.3};
  spec.get_mix = {0.9};
  spec.kv_replicas = {1, 2};
  spec.repetitions = 2;
  spec.kv_keys = 64;
  spec.kv_ops_per_site = 60;
  spec.kv_arrival_per_s = 240.0;
  spec.max_time_s = 300;

  std::string one = mexp::ReportToJson(mexp::ExperimentRunner(1).Run(spec)).ToString();
  std::string eight = mexp::ReportToJson(mexp::ExperimentRunner(8).Run(spec)).ToString();
  EXPECT_EQ(one, eight);
  EXPECT_FALSE(one.empty());
}

// The tentpole determinism claim (DESIGN.md §12): a report produced with the
// parallel simulator core (MIRAGE_SIM_WORKERS) is byte-identical to the
// serial one, for both a fig8-style sweep and the kvstore serving scenario.
// Were the variable ignored, both sides would run serially and still agree,
// so one point per worker count must also show the workers at work.
TEST(ExperimentRunner, ReportBytesIdenticalAcrossSimWorkerCounts) {
  mexp::ExperimentSpec fig8;
  fig8.name = "sim-worker-determinism";
  fig8.workload = "readwriters";
  fig8.sites = {2};
  fig8.delta_ms = {0, 120};
  fig8.iterations = 4000;
  fig8.repetitions = 2;
  fig8.max_time_s = 300;

  mexp::ExperimentSpec kv;
  kv.name = "kv-sim-worker-determinism";
  kv.workload = "kvstore";
  kv.sites = {3};
  kv.delta_ms = {0};
  kv.kv_keys = 64;
  kv.kv_ops_per_site = 60;
  kv.kv_arrival_per_s = 240.0;
  kv.max_time_s = 300;

  for (const mexp::ExperimentSpec& spec : {fig8, kv}) {
    unsetenv("MIRAGE_SIM_WORKERS");
    const std::string serial =
        mexp::ReportToJson(mexp::ExperimentRunner(1).Run(spec)).ToString();
    EXPECT_FALSE(serial.empty());
    for (const char* w : {"2", "4"}) {
      setenv("MIRAGE_SIM_WORKERS", w, /*overwrite=*/1);
      const std::string parallel =
          mexp::ReportToJson(mexp::ExperimentRunner(1).Run(spec)).ToString();
      EXPECT_EQ(serial, parallel) << spec.name << " workers=" << w;
      bool hooked = false;
      mexp::ExecuteRun(spec.Expand()[0], [&](msysv::World& world, const mexp::RunResult&) {
        hooked = true;
        EXPECT_EQ(world.sim().workers(), std::min(std::atoi(w), spec.sites[0])) << spec.name;
        EXPECT_GT(world.sim().parallel_stats().windows, 0u) << spec.name << " workers=" << w;
      });
      EXPECT_TRUE(hooked) << spec.name;
    }
    unsetenv("MIRAGE_SIM_WORKERS");
  }
}

// The rdma cost preset reprices every network/CPU constant; runs must still
// complete, and the non-default preset must be named in the report params
// (while the default stays omitted for baseline byte-compatibility).
TEST(ExperimentRunner, RdmaCostPresetCompletesAndIsNamedInParams) {
  mexp::ExperimentSpec spec;
  spec.name = "cost-presets";
  spec.workload = "readwriters";
  spec.sites = {2};
  spec.delta_ms = {0};
  spec.iterations = 2000;
  spec.cost_presets = {"ethernet1989", "rdma"};
  spec.max_time_s = 300;

  mexp::ExperimentReport report = mexp::ExperimentRunner(2).Run(spec);
  ASSERT_EQ(report.points.size(), 2u);
  EXPECT_EQ(report.failed_runs, 0);
  for (const mexp::PointResult& pt : report.points) {
    EXPECT_EQ(pt.metrics.at("completed").Mean(), 1.0) << pt.params.cost_preset;
  }
  const std::string json = mexp::ReportToJson(report).ToString();
  EXPECT_NE(json.find("\"cost\": \"rdma\""), std::string::npos);
  EXPECT_EQ(json.find("\"cost\": \"ethernet1989\""), std::string::npos);
  // rdma's cheaper fabric must actually change the measured world: the two
  // points may not report identical sim times.
  EXPECT_NE(report.points[0].metrics.at("sim_time_ms").Mean(),
            report.points[1].metrics.at("sim_time_ms").Mean());
}

// One run measured three ways must agree: the World ExecuteRun's report hook
// sees, the RunResult it returns, and the runner's sweep point for the same
// one-run spec. kvstore (client seed) and lossy ping-pong (circuit-loss
// seed) are the configurations whose seeds derive from the spec seed.
void ExpectOneRunPathAgrees(const mexp::ExperimentSpec& spec) {
  std::vector<mexp::RunConfig> runs = spec.Expand();
  ASSERT_EQ(runs.size(), 1u);
  bool hooked = false;
  double world_ms = 0.0;
  double world_packets = 0.0;
  double hook_throughput = 0.0;
  std::ostringstream text;
  mexp::RunResult direct =
      mexp::ExecuteRun(runs[0], [&](msysv::World& world, const mexp::RunResult& r) {
        hooked = true;
        world_ms = msim::ToMilliseconds(world.sim().Now());
        world_packets = static_cast<double>(world.network().stats().packets);
        hook_throughput = r.metrics.at("throughput");
        mexp::PrintRunReport(world, runs[0], r, text);
      });
  ASSERT_TRUE(direct.ok) << direct.error;
  ASSERT_TRUE(hooked);
  EXPECT_EQ(direct.metrics.at("completed"), 1.0);
  EXPECT_EQ(world_ms, direct.metrics.at("sim_time_ms"));
  EXPECT_EQ(world_packets, direct.metrics.at("net_packets"));
  EXPECT_EQ(hook_throughput, direct.metrics.at("throughput"));

  mexp::ExperimentReport report = mexp::ExperimentRunner(1).Run(spec);
  ASSERT_EQ(report.points.size(), 1u);
  const mexp::PointResult& pt = report.points[0];
  EXPECT_EQ(world_ms, pt.metrics.at("sim_time_ms").Mean());
  EXPECT_EQ(world_packets, pt.metrics.at("net_packets").Mean());
  EXPECT_EQ(hook_throughput, pt.metrics.at("throughput").Mean());
  EXPECT_EQ(direct.metrics, pt.runs[0].metrics);

  // The text report shows the same simulated time and a clean invariant
  // check.
  const std::string out = text.str();
  const std::size_t at = out.find("simulated time: ");
  ASSERT_NE(at, std::string::npos) << out;
  EXPECT_NEAR(std::stod(out.substr(at + 16)), world_ms, 0.05);
  EXPECT_NE(out.find("invariants: OK"), std::string::npos) << out;
}

TEST(ExperimentRunner, OneRunReportHookAgreesWithSweepPointForKvstore) {
  mexp::ExperimentSpec spec;
  spec.workload = "kvstore";
  spec.sites = {4};
  ExpectOneRunPathAgrees(spec);
}

TEST(ExperimentRunner, OneRunReportHookAgreesWithSweepPointForLossyPingPong) {
  mexp::ExperimentSpec spec;
  spec.workload = "pingpong";
  spec.sites = {2};
  spec.delta_ms = {17};
  spec.loss = {0.2};
  spec.rounds = 40;
  spec.max_time_s = 900;
  ExpectOneRunPathAgrees(spec);
}

// ExecuteRun's Li-suite branches (matrix, dot, tsp) each finish a small
// instance, check it against the workload's host-side oracle and time it.
TEST(ExecuteRun, LiSuiteBranchesCompleteAndVerify) {
  for (const char* workload : {"matrix", "dot", "tsp"}) {
    mexp::RunConfig cfg;
    cfg.workload = workload;
    cfg.sites = 2;
    cfg.matrix_n = 8;
    cfg.dot_length = 512;
    cfg.tsp_cities = 6;
    const mexp::RunResult r = mexp::ExecuteRun(cfg);
    ASSERT_TRUE(r.ok) << workload << ": " << r.error;
    EXPECT_EQ(r.metrics.at("completed"), 1.0) << workload;
    EXPECT_EQ(r.metrics.at("verified"), 1.0) << workload;
    EXPECT_GT(r.metrics.at("elapsed_s"), 0.0) << workload;
    if (std::string(workload) == "tsp") {
      EXPECT_GT(r.metrics.at("nodes_expanded"), 0.0);
    }
  }
}

TEST(ExperimentRunner, AggregatesAcrossRepetitionsInSpecOrder) {
  mexp::ExperimentSpec spec;
  spec.workload = "pingpong";
  spec.sites = {2};
  spec.delta_ms = {0};
  spec.rounds = 5;
  spec.repetitions = 3;
  mexp::ExperimentReport report = mexp::ExperimentRunner(2).Run(spec);
  ASSERT_EQ(report.points.size(), 1u);
  EXPECT_EQ(report.failed_runs, 0);
  const mexp::PointResult& pt = report.points[0];
  ASSERT_EQ(pt.runs.size(), 3u);
  EXPECT_EQ(pt.metrics.at("completed").Mean(), 1.0);
  EXPECT_EQ(pt.metrics.at("cycles").count(), 3u);
  EXPECT_DOUBLE_EQ(pt.metrics.at("cycles").Mean(), 5.0);
  // Identical deterministic runs: zero spread, and the merged histogram has
  // three runs' worth of write faults.
  EXPECT_DOUBLE_EQ(pt.metrics.at("throughput").StdDev(), 0.0);
  EXPECT_EQ(pt.write_latency.count(), 3 * pt.runs[0].write_latency.count());
}

TEST(ExperimentRunner, FaultPlanAxisProducesMeasuredDegradedRuns) {
  // Crash the library site mid-ping-pong. One player dies with it, so the
  // workload cannot complete — but the survivor elects itself library,
  // reconstructs the directory, and keeps serving instead of aborting with
  // EIDRM. The harness records the degraded run as a measurement.
  mexp::ExperimentSpec spec;
  spec.workload = "pingpong";
  spec.sites = {2};
  spec.delta_ms = {0};
  spec.rounds = 40;
  spec.max_time_s = 5;  // the recovery story is over well before this
  mexp::FaultPlanSpec fp;
  fp.name = "crash_library";
  fp.plan.CrashAt(50 * msim::kMillisecond, 0);
  spec.fault_plans.push_back(fp);

  mexp::ExperimentReport report = mexp::ExperimentRunner(1).Run(spec);
  ASSERT_EQ(report.points.size(), 1u);
  EXPECT_EQ(report.failed_runs, 0);
  const mexp::PointResult& pt = report.points[0];
  EXPECT_EQ(pt.params.fault_plan, "crash_library");
  EXPECT_EQ(pt.metrics.at("completed").Mean(), 0.0);  // partner died mid-game
  EXPECT_EQ(pt.metrics.at("aborted").Mean(), 0.0);    // but no EIDRM: failover
  EXPECT_EQ(pt.metrics.at("elections").Mean(), 1.0);
  EXPECT_EQ(pt.metrics.at("recoveries").Mean(), 1.0);
  EXPECT_GE(pt.metrics.at("pages_recovered").Mean(), 1.0);
}

// Failover determinism under the experiment harness: a recovery-heavy grid
// (library crash, successor crash, and a fault-free control) emits the same
// report bytes from 1 and 4 worker threads.
TEST(ExperimentRunner, RecoveryHeavyReportIdenticalAcrossThreadCounts) {
  mexp::ExperimentSpec spec;
  spec.name = "recovery-determinism";
  spec.workload = "pingpong";
  spec.sites = {3};
  spec.delta_ms = {0, 17};
  spec.rounds = 10;
  spec.repetitions = 2;
  spec.max_time_s = 5;
  mexp::FaultPlanSpec none;
  none.name = "none";
  spec.fault_plans.push_back(none);
  mexp::FaultPlanSpec lib;
  lib.name = "crash_library";
  lib.plan.CrashAt(50 * msim::kMillisecond, 0);
  spec.fault_plans.push_back(lib);
  mexp::FaultPlanSpec chain;
  chain.name = "crash_library_then_successor";
  chain.plan.CrashAt(50 * msim::kMillisecond, 0);
  chain.plan.CrashAt(400 * msim::kMillisecond, 1);
  spec.fault_plans.push_back(chain);

  std::string one = mexp::ReportToJson(mexp::ExperimentRunner(1).Run(spec)).ToString();
  std::string four = mexp::ReportToJson(mexp::ExperimentRunner(4).Run(spec)).ToString();
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("crash_library_then_successor"), std::string::npos);
}

TEST(ExperimentRunner, ReplicatedReportIdenticalAcrossThreadCounts) {
  mexp::ExperimentSpec spec;
  spec.name = "replication-determinism";
  spec.workload = "pingpong";
  spec.sites = {3};
  spec.delta_ms = {0};
  spec.replicas = {1, 2};
  spec.rounds = 10;
  spec.repetitions = 2;
  spec.max_time_s = 5;
  spec.library_site = 2;
  mexp::FaultPlanSpec none;
  none.name = "none";
  spec.fault_plans.push_back(none);
  mexp::FaultPlanSpec lib;
  lib.name = "crash_library";
  lib.plan.CrashAt(50 * msim::kMillisecond, 2);
  spec.fault_plans.push_back(lib);

  std::string one = mexp::ReportToJson(mexp::ExperimentRunner(1).Run(spec)).ToString();
  std::string four = mexp::ReportToJson(mexp::ExperimentRunner(4).Run(spec)).ToString();
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("replica_writes"), std::string::npos);
  EXPECT_NE(one.find("quorum_waits"), std::string::npos);
}

// The "replicas" param is omitted at k=1, as in reports written before the
// replication axis existed (schema v1): the committed preset baselines and
// golden files depend on that omission byte for byte.
TEST(Report, ReplicasParamOmittedAtOneForBaselineCompat) {
  mexp::ExperimentSpec spec;
  spec.workload = "pingpong";
  spec.rounds = 4;
  spec.replicas = {1, 2};
  mexp::ExperimentReport report = mexp::ExperimentRunner(1).Run(spec);
  mexp::Json doc = mexp::ReportToJson(report);
  EXPECT_NE(doc.Find("schema"), nullptr);
  EXPECT_EQ(doc.Find("schema")->AsString(), "mirage-exp-v2");
  const mexp::Json* points = doc.Find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->items().size(), 2u);
  EXPECT_EQ(points->items()[0].Find("params")->Find("replicas"), nullptr);
  const mexp::Json* k2 = points->items()[1].Find("params")->Find("replicas");
  ASSERT_NE(k2, nullptr);
  EXPECT_EQ(k2->AsInt(), 2);
}

TEST(Report, CsvHasHeaderAndOneRowPerMetric) {
  mexp::ExperimentSpec spec;
  spec.workload = "pingpong";
  spec.rounds = 4;
  spec.cost_presets = {"ethernet1989", "rdma"};
  mexp::ExperimentReport report = mexp::ExperimentRunner(1).Run(spec);
  std::ostringstream os;
  mexp::WriteCsv(report, os);
  std::string csv = os.str();
  EXPECT_NE(csv.find("point,workload,sites,delta_ms"), std::string::npos);
  EXPECT_NE(csv.find(",throughput,"), std::string::npos);
  EXPECT_NE(csv.find(",kv_replicas,cost,fault_plan,metric,"), std::string::npos);
  // Each cost preset is its own point, and its rows name the preset.
  EXPECT_NE(csv.find(",ethernet1989,none,throughput,"), std::string::npos);
  EXPECT_NE(csv.find(",rdma,none,throughput,"), std::string::npos);
  EXPECT_NE(csv.find(",write_fault_p99_ms,"), std::string::npos);
}

}  // namespace
