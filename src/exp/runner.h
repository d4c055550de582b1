// Parallel experiment execution with deterministic aggregation.
//
// The runner expands a spec, executes each RunConfig on a pool of worker
// threads (each run is an independent single-threaded simulation), and
// merges results strictly in spec order: results land in a slot indexed by
// run_index, so completion order — and therefore the thread count — cannot
// change a single byte of the report.
#ifndef SRC_EXP_RUNNER_H_
#define SRC_EXP_RUNNER_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/exp/run.h"
#include "src/exp/spec.h"
#include "src/exp/stats.h"

namespace mexp {

// Aggregate over the repetitions of one grid point.
struct PointResult {
  RunConfig params;             // rep-0 config (the point's parameters)
  std::vector<RunResult> runs;  // per-repetition raw results, in rep order
  // Per-metric streams folded across repetitions, keyed by metric name.
  std::map<std::string, StatsAccumulator> metrics;
  // Fault-latency histograms merged across repetitions (and sites).
  mtrace::LatencyHistogram read_latency;
  mtrace::LatencyHistogram write_latency;
};

struct ExperimentReport {
  ExperimentSpec spec;
  std::vector<PointResult> points;  // expansion order
  int failed_runs = 0;              // runs that threw (RunResult::ok == false)
};

class ExperimentRunner {
 public:
  // threads <= 0 picks std::thread::hardware_concurrency().
  explicit ExperimentRunner(int threads = 0);

  int threads() const { return threads_; }

  // Runs the whole grid. `progress`, when set, is called after each finished
  // run with (finished, total) — from worker threads, so it must be
  // thread-safe; the CLI uses it for a stderr ticker.
  ExperimentReport Run(const ExperimentSpec& spec,
                       const std::function<void(int, int)>& progress = nullptr) const;

 private:
  int threads_;
};

}  // namespace mexp

#endif  // SRC_EXP_RUNNER_H_
