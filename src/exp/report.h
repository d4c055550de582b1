// Report emission (JSON, CSV, and the text report of one run) and baseline
// regression diffing.
//
// The JSON schema ("mirage-exp-v2", documented in DESIGN.md) is the
// interchange format of the whole measurement pipeline: experiment_runner
// writes it for sweeps and single points alike, tests byte-compare it
// across thread counts, and the diff mode re-reads it to flag metric
// regressions against a stored baseline. experiment_runner --report prints
// one run as text instead, from the World that ExecuteRun built and ran.
#ifndef SRC_EXP_REPORT_H_
#define SRC_EXP_REPORT_H_

#include <ostream>
#include <string>
#include <vector>

#include "src/exp/json.h"
#include "src/exp/runner.h"

namespace mexp {

// Full report -> JSON document. Deterministic: member order is fixed,
// numbers are formatted identically for identical values, and nothing
// machine- or wall-clock-dependent is included.
Json ReportToJson(const ExperimentReport& report);

// Long-form CSV: one row per (point, metric) with the aggregate columns,
// plus rows for the merged fault-latency percentiles.
void WriteCsv(const ExperimentReport& report, std::ostream& os);

// The text report of one finished run, called from ExecuteRun's WorldHook:
// the workload's headline figures (from `result`), World::PrintReport, the
// all-site fault-latency percentiles, a post-run invariant check scoped to
// live sites (Mirage backends only; it first quiesces the World for two
// simulated seconds), the circuit counters when the transport is active,
// and the protocol trace when cfg.trace is set.
void PrintRunReport(msysv::World& world, const RunConfig& cfg, const RunResult& result,
                    std::ostream& os);

// One metric's comparison against a baseline report.
struct DiffEntry {
  std::string point;   // human-readable parameter key
  std::string metric;
  double baseline = 0.0;
  double current = 0.0;
  double rel_change = 0.0;  // (current - baseline) / |baseline|
  // True when the change moves a directional metric the wrong way by more
  // than the tolerance (throughput down, latency/failures up).
  bool regression = false;
};

// Compares two mirage-exp documents (v1 or v2) point-by-point (points are matched on
// their parameter values). Entries are emitted for every metric whose
// relative change exceeds `tolerance`; points present in only one report are
// skipped. Metrics measured as better-when-higher (throughput, ops, units)
// regress when they drop; better-when-lower metrics (latency, elapsed,
// failures) regress when they rise; everything else is informational.
std::vector<DiffEntry> DiffReports(const Json& baseline, const Json& current,
                                   double tolerance);

// Direction sense used by the diff (exposed for tests).
enum class MetricSense { kHigherIsBetter, kLowerIsBetter, kNeutral };
MetricSense SenseOf(const std::string& metric);

}  // namespace mexp

#endif  // SRC_EXP_REPORT_H_
