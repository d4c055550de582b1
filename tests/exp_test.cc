// Tests for the experiment harness: spec expansion, validation and seed
// derivation, JSON round trips, streaming statistics, the parallel runner's
// determinism across thread counts, the one-run report path, and baseline
// regression diffing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>

#include "src/exp/report.h"
#include "src/exp/runner.h"
#include "src/exp/spec.h"
#include "src/exp/stats.h"
#include "src/sysv/world.h"

namespace {

TEST(ExperimentSpec, ExpandIsGridTimesRepsInFixedOrder) {
  mexp::ExperimentSpec spec;
  spec.sites = {2, 4};
  spec.delta_ms = {0, 100};
  spec.loss = {0.0, 0.5};
  spec.repetitions = 3;
  EXPECT_EQ(spec.PointCount(), 8);
  std::vector<mexp::RunConfig> runs = spec.Expand();
  ASSERT_EQ(runs.size(), 24u);
  // Nesting order: sites > delta > quantum > segment_bytes > loss > plan,
  // reps contiguous and innermost.
  EXPECT_EQ(runs[0].sites, 2);
  EXPECT_EQ(runs[0].delta_ms, 0);
  EXPECT_EQ(runs[0].loss, 0.0);
  EXPECT_EQ(runs[2].rep, 2);
  EXPECT_EQ(runs[3].loss, 0.5);
  EXPECT_EQ(runs[3].rep, 0);
  EXPECT_EQ(runs[6].delta_ms, 100);
  EXPECT_EQ(runs[12].sites, 4);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].run_index, static_cast<int>(i));
    EXPECT_EQ(runs[i].point, static_cast<int>(i) / 3);
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

TEST(ExperimentSpec, JsonRoundTripPreservesGridAndSeed) {
  mexp::ExperimentSpec spec;
  spec.name = "roundtrip";
  spec.workload = "scalability";
  spec.sites = {3, 6, 12};  // the fault plan below names site 2
  spec.delta_ms = {0, 50};
  spec.loss = {0.0, 0.02};
  spec.repetitions = 2;
  spec.seed = 0xDEADBEEFCAFEF00DULL;
  spec.rounds = 5;
  mexp::FaultPlanSpec fp;
  fp.name = "crash1";
  fp.plan.CrashAt(50 * msim::kMillisecond, 1);
  fp.plan.PartitionAt(100 * msim::kMillisecond, 0, 2);
  fp.plan.HealAt(400 * msim::kMillisecond, 0, 2);
  spec.fault_plans.push_back(fp);

  std::string text = spec.ToJson().ToString();
  std::string error;
  mexp::Json parsed = mexp::Json::Parse(text, &error);
  ASSERT_TRUE(error.empty()) << error;
  mexp::ExperimentSpec back;
  ASSERT_TRUE(mexp::ExperimentSpec::FromJson(parsed, &back, &error)) << error;
  EXPECT_EQ(back.name, "roundtrip");
  EXPECT_EQ(back.workload, "scalability");
  EXPECT_EQ(back.sites, spec.sites);
  EXPECT_EQ(back.delta_ms, spec.delta_ms);
  EXPECT_EQ(back.loss, spec.loss);
  EXPECT_EQ(back.seed, spec.seed);  // hex-string seeds survive exactly
  EXPECT_EQ(back.rounds, 5);
  ASSERT_EQ(back.fault_plans.size(), 1u);
  EXPECT_EQ(back.fault_plans[0].name, "crash1");
  ASSERT_EQ(back.fault_plans[0].plan.events().size(), 3u);
  // Library-crash plans survive exactly: the failover experiments depend on
  // the crash hitting the same site at the same tick after a round-trip.
  EXPECT_EQ(back.fault_plans[0].plan.events()[0].kind, mfault::FaultKind::kCrashSite);
  EXPECT_EQ(back.fault_plans[0].plan.events()[0].at_us, 50 * msim::kMillisecond);
  EXPECT_EQ(back.fault_plans[0].plan.events()[0].site, 1);
  EXPECT_EQ(back.fault_plans[0].plan.events()[2].kind, mfault::FaultKind::kHealLink);
  EXPECT_EQ(back.fault_plans[0].plan.events()[2].peer, 2);
  // And the round-tripped spec expands to the same runs.
  EXPECT_EQ(back.Expand().size(), spec.Expand().size());
  EXPECT_EQ(back.Expand()[3].seed, spec.Expand()[3].seed);
}

TEST(ExperimentSpec, FromJsonRejectsBadInput) {
  std::string error;
  mexp::ExperimentSpec out;
  mexp::Json bad = mexp::Json::Parse(R"({"sites": []})", &error);
  EXPECT_FALSE(mexp::ExperimentSpec::FromJson(bad, &out, &error));
  bad = mexp::Json::Parse(R"({"sites": [1000]})", &error);
  EXPECT_FALSE(mexp::ExperimentSpec::FromJson(bad, &out, &error));
  bad = mexp::Json::Parse(R"({"repetitions": 0})", &error);
  EXPECT_FALSE(mexp::ExperimentSpec::FromJson(bad, &out, &error));
  bad = mexp::Json::Parse(R"({"cost_presets": ["token-ring"]})", &error);
  EXPECT_FALSE(mexp::ExperimentSpec::FromJson(bad, &out, &error));
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
}

TEST(ExperimentSpec, PresetsAreValidAndNamed) {
  for (const char* name : {"fig8", "amelioration", "scalematrix", "availability", "kvstore"}) {
    std::optional<mexp::ExperimentSpec> spec = mexp::Preset(name);
    ASSERT_TRUE(spec.has_value()) << name;
    EXPECT_EQ(spec->name, name);
    std::string error;
    EXPECT_TRUE(spec->Validate(&error)) << name << ": " << error;
  }
  EXPECT_FALSE(mexp::Preset("fig9").has_value());
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

// The "replicas" param is omitted at k=1 so point keys — and therefore
// regression diffs — line up against baseline reports written before the
// replication axis existed (schema v1).
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

TEST(ReportDiff, FlagsDirectionalRegressionsBeyondTolerance) {
  auto make_report = [](double throughput, double latency) {
    mexp::ExperimentSpec spec;
    mexp::ExperimentReport report;
    report.spec = spec;
    mexp::PointResult pt;
    pt.params = spec.Expand()[0];
    mexp::RunResult rr;
    rr.ok = true;
    rr.metrics["throughput"] = throughput;
    rr.metrics["mean_write_latency_ms"] = latency;
    pt.metrics["throughput"].Add(throughput);
    pt.metrics["mean_write_latency_ms"].Add(latency);
    pt.runs.push_back(std::move(rr));
    report.points.push_back(std::move(pt));
    return mexp::ReportToJson(report);
  };
  mexp::Json base = make_report(100.0, 10.0);
  mexp::Json worse = make_report(80.0, 13.0);   // -20% throughput, +30% latency
  mexp::Json better = make_report(120.0, 8.0);  // improvements only

  std::vector<mexp::DiffEntry> diffs = mexp::DiffReports(base, worse, 0.10);
  int regressions = 0;
  for (const mexp::DiffEntry& d : diffs) {
    if (d.regression) {
      ++regressions;
    }
  }
  EXPECT_EQ(regressions, 2);

  for (const mexp::DiffEntry& d : mexp::DiffReports(base, better, 0.10)) {
    EXPECT_FALSE(d.regression) << d.metric;
  }
  // Within tolerance: nothing reported at all.
  EXPECT_TRUE(mexp::DiffReports(base, make_report(95.0, 10.4), 0.10).empty());
}

TEST(ReportDiff, MetricSenses) {
  EXPECT_EQ(mexp::SenseOf("throughput"), mexp::MetricSense::kHigherIsBetter);
  EXPECT_EQ(mexp::SenseOf("background_units_per_s"), mexp::MetricSense::kHigherIsBetter);
  EXPECT_EQ(mexp::SenseOf("mean_write_latency_ms"), mexp::MetricSense::kLowerIsBetter);
  EXPECT_EQ(mexp::SenseOf("elapsed_s"), mexp::MetricSense::kLowerIsBetter);
  EXPECT_EQ(mexp::SenseOf("ops_failed"), mexp::MetricSense::kLowerIsBetter);
  EXPECT_EQ(mexp::SenseOf("faults_failed"), mexp::MetricSense::kLowerIsBetter);
  EXPECT_EQ(mexp::SenseOf("net_packets"), mexp::MetricSense::kNeutral);
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
