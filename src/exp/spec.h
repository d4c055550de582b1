// Declarative experiment specifications.
//
// An ExperimentSpec names a workload and a parameter grid — sites, the time
// window Delta, the scheduling quantum, segment size, network frame loss,
// and fault plans — plus a repetition count. Expand() flattens the grid into
// RunConfigs in a fixed nesting order with per-run seeds derived from the
// spec seed, so the same spec always yields the same runs in the same order
// no matter how many worker threads later execute them.
//
// Specs round-trip through JSON (see DESIGN.md "Experiment JSON schema"):
// the CLI loads them from files, and every report embeds the spec that
// produced it.
#ifndef SRC_EXP_SPEC_H_
#define SRC_EXP_SPEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/exp/json.h"
#include "src/fault/fault.h"
#include "src/sim/time.h"

namespace mexp {

// A named fault schedule used as one value of the fault-plan axis.
struct FaultPlanSpec {
  std::string name = "none";
  mfault::FaultPlan plan;
};

// One fully resolved simulation: a single point of the grid at one
// repetition. Everything a worker thread needs to build a World and run the
// workload, with no shared state.
struct RunConfig {
  int point = 0;      // grid-point index, in spec nesting order
  int rep = 0;        // repetition within the point
  int run_index = 0;  // global index across the expansion

  std::string workload = "readwriters";
  int sites = 2;
  std::int64_t delta_ms = 0;
  int quantum_ticks = 6;
  std::uint32_t segment_bytes = 512;
  double loss = 0.0;
  // Page replication degree k (ProtocolOptions::replicas); 1 = the paper's
  // single-copy protocol.
  int replicas = 1;
  std::string fault_plan = "none";
  mfault::FaultPlan faults;

  // kvstore workload point values. kv_replicas is data-level replication
  // (complete table copies, spreads read + library load) — distinct from
  // `replicas` above, whose quorum standbys are crash insurance only.
  double zipf_s = 0.0;
  double get_mix = 0.95;
  int kv_replicas = 1;

  // Cost-model preset (mnet::CostModel::FromName): "ethernet1989" is the
  // paper's measured VAX/Ethernet constants, "rdma" a modern low-latency
  // interconnect ablation.
  std::string cost_preset = "ethernet1989";

  // Derived per-run values.
  std::uint64_t seed = 0;
  msim::Duration start_offset_us = 0;

  // Workload tunables (copied from the spec).
  // Site whose Shmget creates the shared segment (its library site). 0 is
  // the workloads' native behaviour; a nonzero value pre-creates the segment
  // there, so a fault plan can crash a pure-controller library while every
  // workload process survives (the failover experiments).
  int library_site = 0;
  int iterations = 50000;
  int rounds = 8;
  int matrix_n = 24;
  int dot_length = 2048;
  int tsp_cities = 8;
  bool with_background = false;
  bool use_yield = true;
  bool parallel_lib = false;
  bool baseline = false;
  // Record the protocol trace (World::tracer) for a text report. Never set
  // by Expand() and never serialized: it changes output, not results.
  bool trace = false;
  msim::Duration max_time_us = 600 * msim::kSecond;
  // kvstore scalar tunables (see mwork::KvStoreParams).
  std::uint32_t kv_keys = 192;
  std::uint32_t kv_value_words = 4;
  double kv_arrival_per_s = 120.0;
  std::uint32_t kv_ops_per_site = 200;
  int kv_workers = 3;
  std::uint32_t kv_shards = 0;
};

struct ExperimentSpec {
  std::string name = "experiment";
  std::string workload = "readwriters";

  // ---- Grid axes (each must be non-empty) ----
  std::vector<int> sites{2};
  std::vector<std::int64_t> delta_ms{0};
  std::vector<int> quantum_ticks{6};
  std::vector<std::uint32_t> segment_bytes{512};
  std::vector<double> loss{0.0};
  // Replication degree axis; {1} (the default) reproduces the pre-replication
  // grid byte-for-byte: point order, run order, and derived seeds all match.
  std::vector<int> replicas{1};
  // kvstore axes; singletons at the defaults leave every other workload's
  // expansion (point order, run order, seeds) byte-identical to before.
  std::vector<double> zipf_s{0.0};
  std::vector<double> get_mix{0.95};
  std::vector<int> kv_replicas{1};
  // Cost-model preset axis; the {"ethernet1989"} default leaves every
  // existing spec's expansion (point order, run order, seeds) and report
  // byte-identical to before the axis existed.
  std::vector<std::string> cost_presets{"ethernet1989"};
  // Empty = one implicit fault-free plan named "none".
  std::vector<FaultPlanSpec> fault_plans;

  // ---- Repetitions ----
  int repetitions = 1;
  // Repetition r starts its second process after phase_offsets_ms[r % size]
  // of local compute — the legacy benches' phase-averaging, as a spec knob.
  std::vector<std::int64_t> phase_offsets_ms{0};
  std::uint64_t seed = 1;

  // ---- Workload tunables ----
  int library_site = 0;  // see RunConfig::library_site
  int iterations = 50000;
  int rounds = 8;
  int matrix_n = 24;
  int dot_length = 2048;
  int tsp_cities = 8;
  bool with_background = false;
  bool use_yield = true;
  bool parallel_lib = false;
  bool baseline = false;
  std::int64_t max_time_s = 600;
  // kvstore scalar tunables (see mwork::KvStoreParams).
  std::uint32_t kv_keys = 192;
  std::uint32_t kv_value_words = 4;
  double kv_arrival_per_s = 120.0;
  std::uint32_t kv_ops_per_site = 200;
  int kv_workers = 3;
  std::uint32_t kv_shards = 0;  // 0: one shard per site

  // Grid points (product of the axis sizes, without repetitions).
  int PointCount() const;
  // Flattens the grid in nesting order sites > delta > quantum >
  // segment_bytes > loss > replicas > zipf_s > get_mix > kv_replicas >
  // cost_preset > fault_plan, repetitions innermost. Deterministic.
  std::vector<RunConfig> Expand() const;

  // The seed for global run `run_index`, splitmix-derived from the spec seed.
  static std::uint64_t DeriveSeed(std::uint64_t base, int run_index);

  // The range checks every spec passes before it runs, whether it came
  // from a JSON file or from CLI flags: a known workload, non-empty axes,
  // sites in 1..512, loss and get_mix in [0, 1], replicas and kv_replicas
  // in 1..12, zipf_s >= 0, known cost presets and self-consistent fault
  // plans.
  // Returns false and sets *error on the first violation.
  bool Validate(std::string* error) const;

  Json ToJson() const;
  // Parses and validates a spec; unknown members are ignored, absent ones
  // keep defaults. Returns false and sets *error on malformed input.
  static bool FromJson(const Json& j, ExperimentSpec* out, std::string* error);
};

// Workload names understood by ExecuteRun.
bool KnownWorkload(const std::string& name);

// The named presets (EXPERIMENTS.md): "fig8", "amelioration",
// "scalematrix", "availability" and "kvstore". nullopt for any other name.
std::optional<ExperimentSpec> Preset(const std::string& name);

// Fault plan (de)serialization, shared with the report emitter.
Json FaultPlanToJson(const FaultPlanSpec& fp);
bool FaultPlanFromJson(const Json& j, FaultPlanSpec* out, std::string* error);

}  // namespace mexp

#endif  // SRC_EXP_SPEC_H_
