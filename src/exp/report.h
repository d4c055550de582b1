// Report emission: JSON, CSV, and the text report of one run.
//
// The JSON schema ("mirage-exp-v2", documented in DESIGN.md) is the
// interchange format of the whole measurement pipeline: experiment_runner
// writes it for sweeps and single points alike, tests byte-compare it
// across thread counts, and golden ctests byte-compare it with committed
// baselines. experiment_runner --report prints one run as text instead,
// from the World that ExecuteRun built and ran.
#ifndef SRC_EXP_REPORT_H_
#define SRC_EXP_REPORT_H_

#include <ostream>

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

}  // namespace mexp

#endif  // SRC_EXP_REPORT_H_
