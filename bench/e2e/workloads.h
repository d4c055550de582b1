// The four benchmark workloads. Each builds its inputs from the seed, drives
// one World, and checks its own outputs; README.md says why each exists.
#ifndef BENCH_E2E_WORKLOADS_H_
#define BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/exp/json.h"
#include "src/sysv/world.h"

namespace e2e {

// Correctness failures found while checking a run.
struct Checks {
  std::vector<std::string> errors;
  void Require(bool ok, const std::string& what) {
    if (!ok) {
      errors.push_back(what);
    }
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int sites() const = 0;
  // World settings; the traced pass always runs serial.
  virtual msysv::WorldOptions Options(bool traced) const = 0;
  // Spawns the workload. May run the simulation through the workload's own
  // set-up (the kv table's inserts), which then counts as set-up time.
  virtual void Launch(msysv::World& world) = 0;
  virtual bool Done() const = 0;
  // Ops in the workload's unit: read-write instructions, rotations, or
  // client requests. `attempted` is fixed by the size; `completed` counts
  // ops that finished correctly.
  virtual std::uint64_t attempted() const = 0;
  virtual std::uint64_t completed() const = 0;
  // Completed ops per simulated second of the measured phase.
  virtual double SimTput() const = 0;
  virtual void Check(Checks* checks) const = 0;
  // The dsmlib and client per-layer metrics, which only kv_zipf has; the
  // default reports them as 0 so that every workload prints the same set.
  virtual void AddMetrics(mexp::Json* metrics) const;
};

// Names: fig8_rw, multiseg_w2, ring4_k2, kv_zipf. Returns null for others.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed);

}  // namespace e2e

#endif  // BENCH_E2E_WORKLOADS_H_
