// Executing one RunConfig: build a World, launch the named workload, and
// collect a uniform metric set.
//
// ExecuteRun is a pure function of its config — every simulation is
// single-threaded and self-contained, so the ExperimentRunner can execute
// many of them on concurrent worker threads and still merge bit-identical
// results in spec order.
#ifndef SRC_EXP_RUN_H_
#define SRC_EXP_RUN_H_

#include <functional>
#include <map>
#include <string>

#include "src/exp/spec.h"
#include "src/trace/histogram.h"

namespace msysv {
class World;
}  // namespace msysv

namespace mexp {

struct RunResult {
  // False only when the run threw an unexpected exception; a workload abort
  // under fault injection (EIDRM page loss) is a *successful* measurement of
  // a failed run: ok stays true, metrics record completed=0 / aborted=1.
  bool ok = false;
  std::string error;
  // Scalar metrics, sorted by name (deterministic emission order). Always
  // includes "completed"; workloads add their throughput/latency figures and
  // the shared protocol/network counters.
  std::map<std::string, double> metrics;
  // Fault-to-resume latency distributions summed over all sites.
  mtrace::LatencyHistogram read_latency;
  mtrace::LatencyHistogram write_latency;
};

// Called with the World a run built and ran, after its result is collected
// and before the World is destroyed (experiment_runner --report prints from
// it). The hook may advance the World; the result is already final.
using WorldHook = std::function<void(msysv::World&, const RunResult&)>;

RunResult ExecuteRun(const RunConfig& cfg, const WorldHook& on_finish = nullptr);

}  // namespace mexp

#endif  // SRC_EXP_RUN_H_
