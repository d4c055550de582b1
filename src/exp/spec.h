// Declarative experiment specifications.
//
// An ExperimentSpec names a workload, its tunables, a grid of axes and a
// repetition count. Expand() flattens the grid into RunConfigs in a fixed
// order with per-run seeds derived from the spec seed, so the same spec
// always yields the same runs in the same order no matter how many worker
// threads later execute them.
//
// Specs round-trip through JSON (see DESIGN.md "Experiment JSON schema"):
// the CLI loads them from files, and every report embeds the spec that
// produced it.
#ifndef SRC_EXP_SPEC_H_
#define SRC_EXP_SPEC_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
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

// The workload and its tunables: the inputs that every run of a grid
// shares. ExperimentSpec and RunConfig both inherit them, so each is
// declared once and Expand() hands them to every run in one assignment.
struct Tunables {
  std::string workload = "readwriters";
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
  bool baseline = false;  // run the Li/Hudak protocol instead of Mirage
  std::int64_t max_time_s = 600;  // simulated-time cap per run
  // kvstore scalar tunables (see mwork::KvStoreParams).
  std::uint32_t kv_keys = 192;
  std::uint32_t kv_value_words = 4;
  double kv_arrival_per_s = 120.0;
  std::uint32_t kv_ops_per_site = 200;
  int kv_workers = 3;
  std::uint32_t kv_shards = 0;  // 0: one shard per site

  bool operator==(const Tunables&) const = default;
};

// One fully resolved simulation: a single point of the grid at one
// repetition. Everything a worker thread needs to build a World and run the
// workload, with no shared state.
struct RunConfig : Tunables {
  int point = 0;      // grid-point index, in expansion order
  int rep = 0;        // repetition within the point
  int run_index = 0;  // global index across the expansion

  // One value of each grid axis (see ExperimentSpec).
  int sites = 2;
  std::int64_t delta_ms = 0;
  int quantum_ticks = 6;
  std::uint32_t segment_bytes = 512;
  double loss = 0.0;
  // Page replication degree k (ProtocolOptions::replicas); 1 = the paper's
  // single-copy protocol.
  int replicas = 1;
  // kvstore point values. kv_replicas is data-level replication (complete
  // table copies, spreads read + library load) — distinct from `replicas`
  // above, whose quorum standbys are crash insurance only.
  double zipf_s = 0.0;
  double get_mix = 0.95;
  int kv_replicas = 1;
  // Cost-model preset (mnet::CostModel::FromName): "ethernet1989" is the
  // paper's measured VAX/Ethernet constants, "rdma" a modern low-latency
  // interconnect ablation.
  std::string cost_preset = "ethernet1989";
  std::string fault_plan = "none";
  mfault::FaultPlan faults;

  // Derived per-run values.
  std::uint64_t seed = 0;
  msim::Duration start_offset_us = 0;

  // Record the protocol trace (World::tracer) for a text report. Never set
  // by Expand() and never serialized: it changes output, not results.
  bool trace = false;
};

struct ExperimentSpec : Tunables {
  std::string name = "experiment";

  // ---- Grid axes (each must be non-empty), slowest-changing first ----
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

  // Grid points (product of the axis sizes, without repetitions).
  int PointCount() const;
  // Flattens the grid in the axis order above — sites changes slowest, the
  // fault plan fastest — with repetitions innermost. Deterministic.
  std::vector<RunConfig> Expand() const;

  // The seed for global run `run_index`, splitmix-derived from the spec seed.
  static std::uint64_t DeriveSeed(std::uint64_t base, int run_index);

  // The checks every spec passes before it runs, from a file or from flags:
  // the SpecFields() ranges, non-empty lists, a known workload and cost
  // presets, and a library site and fault plans naming sites that every grid
  // point has. Returns false and sets *error on the first violation.
  bool Validate(std::string* error) const;

  Json ToJson() const;
  // Parses and validates a spec; absent members keep defaults. False, with
  // *error naming the member, on an unknown member or a value of another type.
  static bool FromJson(const Json& j, ExperimentSpec* out, std::string* error);
};

// One ExperimentSpec member as spec files, CLI flags and Validate see it.
// SpecFields() lists every member in JSON order; ToJson, FromJson,
// Validate's range checks, PointCount, Expand's axis picks, ApplyFlag and
// Usage each loop over it, so a new tunable or axis is one row there.
struct SpecField {
  // A list member. An axis also names the RunConfig member that each grid
  // point sets to one of its values; other lists leave `run` null.
  template <typename T>
  struct List {
    std::vector<T> ExperimentSpec::*values;
    T RunConfig::*run = nullptr;
  };
  using Member =
      std::variant<bool ExperimentSpec::*, int ExperimentSpec::*, std::int64_t ExperimentSpec::*,
                   std::uint32_t ExperimentSpec::*, std::uint64_t ExperimentSpec::*,
                   double ExperimentSpec::*, std::string ExperimentSpec::*, List<int>,
                   List<std::int64_t>, List<std::uint32_t>, List<double>, List<std::string>,
                   List<FaultPlanSpec>>;

  const char* name;  // the JSON member
  // The CLI flag, or null. A bool's flag takes no value and sets the
  // opposite of the default; a list's takes comma-separated values.
  const char* flag;
  Member member;
  const char* help;
  // Every value of a number (or list of numbers) lies in [min, max]. Both
  // are 0 for other members, the seed among them: it may be any 64-bit value.
  double min = 0;
  double max = 0;
  bool omit_at_default = false;  // ToJson leaves the member out at its default

  bool numeric() const { return min < max; }
};

std::span<const SpecField> SpecFields();

// Applies one spec flag, "--sites=2,4" or "--li", to *spec; Validate checks
// ranges. False, with *error naming the member, for an unknown flag or a
// value not of the member's type, after which *spec may have changed.
bool ApplyFlag(const std::string& arg, ExperimentSpec* spec, std::string* error);

// One line per SpecFields() row: JSON name, flag, help and range.
std::string Usage();

// Parses all of `text` as a number that is a value of T: integral and in
// range for an integer T. Defined for int and double.
template <typename T>
bool ParseNumber(std::string_view text, T* out);

// Workload names understood by ExecuteRun.
bool KnownWorkload(const std::string& name);

// The named presets (EXPERIMENTS.md): "fig8", "amelioration",
// "scalematrix", "availability" and "kvstore". nullopt for any other name.
std::optional<ExperimentSpec> Preset(const std::string& name);

// "0x" + 16 hex digits: how specs and reports write a 64-bit seed.
std::string SeedString(std::uint64_t seed);

}  // namespace mexp

#endif  // SRC_EXP_SPEC_H_
