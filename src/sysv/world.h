// World: the composition root for a simulated Mirage network.
//
// Builds the simulator, the network, and per-site kernel + DSM backend +
// System V layer, mirroring the paper's environment of N machines running
// Locus on an Ethernet (§4.0). Examples, tests, and benches all start here.
#ifndef SRC_SYSV_WORLD_H_
#define SRC_SYSV_WORLD_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/fault/fault.h"
#include "src/mem/backend.h"
#include "src/mirage/engine.h"
#include "src/mirage/protocol.h"
#include "src/mirage/registry.h"
#include "src/net/cost_model.h"
#include "src/net/network.h"
#include "src/os/config.h"
#include "src/os/kernel.h"
#include "src/sim/simulator.h"
#include "src/sysv/shm.h"
#include "src/trace/trace.h"

namespace msysv {

struct WorldOptions {
  mos::SchedulerConfig sched;
  mnet::CostModel costs;
  mirage::ProtocolOptions protocol;
  bool enable_trace = false;
  // Optional Locus virtual-circuit transport over a lossy medium (failure
  // injection). Unset = the lossless synchronous medium.
  std::optional<mnet::CircuitOptions> circuit;

  // Site/link fault schedule. Non-empty plans instantiate a FaultInjector
  // wired into the network and every kernel. Remember to also enable the
  // protocol recovery timeouts (ProtocolOptions::request_timeout_us etc.) —
  // with the paper's wait-forever defaults a crashed library site hangs its
  // clients, by design.
  mfault::FaultPlan faults;

  // Conservative parallel simulation (DESIGN.md §12). `sim_workers` requests
  // that many simulator worker threads; 0 consults the MIRAGE_SIM_WORKERS
  // environment variable, 1 (or an eligibility miss) keeps the serial core.
  // Applied only when the harness sets `parallel_ok` — the workload must use
  // partition-safe shared state (per-site accumulators, out-of-band cells) —
  // and the world is structurally eligible: no fault plan, no lossy circuit
  // transport, no tracing, no page replication. Reports are byte-identical
  // at any worker count; the knobs change only wall-clock time.
  int sim_workers = 0;
  bool parallel_ok = false;

  // Replaces the Mirage engine with another protocol (e.g. the Li/Hudak
  // baseline). When empty, each site gets a mirage::Engine with `protocol`.
  using BackendFactory = std::function<std::unique_ptr<mmem::DsmBackend>(
      mos::Kernel*, mirage::SegmentRegistry*, mtrace::Tracer*)>;
  BackendFactory backend_factory;
};

class World {
 public:
  explicit World(int num_sites, WorldOptions opts = WorldOptions{});
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int site_count() const { return static_cast<int>(kernels_.size()); }
  msim::Simulator& sim() { return sim_; }
  mnet::Network& network() { return *net_; }
  mirage::SegmentRegistry& registry() { return registry_; }
  mtrace::Tracer& tracer() { return tracer_; }
  const mnet::CostModel& costs() const { return costs_; }

  mos::Kernel& kernel(int site) { return *kernels_.at(site); }
  mmem::DsmBackend& backend(int site) { return *backends_.at(site); }
  ShmSystem& shm(int site) { return *shms_.at(site); }
  // The Mirage engine at `site`, or nullptr under a non-Mirage backend.
  mirage::Engine* engine(int site);
  // The fault injector, or nullptr when the world runs without a fault plan.
  mfault::FaultInjector* faults() { return injector_.get(); }
  // Every Mirage engine's statistics totalled (EngineStats::operator+=);
  // all zero under a non-Mirage backend.
  mirage::EngineStats EngineTotals();

  // Advances simulated time by `d`.
  void RunFor(msim::Duration d);
  // Runs until `done()` (polled once per scheduler tick) or until `max_time`
  // elapses; returns done()'s final value.
  bool RunUntil(const std::function<bool()>& done, msim::Duration max_time);

  // Prints a per-site activity report (kernel and protocol counters) plus
  // network totals — the post-run dashboard used by the examples and tools.
  void PrintReport(std::ostream& os);

 private:
  msim::Simulator sim_;
  mnet::CostModel costs_;
  mtrace::Tracer tracer_;
  std::unique_ptr<mnet::Network> net_;
  mirage::SegmentRegistry registry_;
  std::vector<std::unique_ptr<mos::Kernel>> kernels_;
  std::vector<std::unique_ptr<mmem::DsmBackend>> backends_;
  std::vector<std::unique_ptr<ShmSystem>> shms_;
  std::unique_ptr<mfault::FaultInjector> injector_;
  msim::Duration tick_us_;
};

}  // namespace msysv

#endif  // SRC_SYSV_WORLD_H_
