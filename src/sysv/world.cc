#include "src/sysv/world.h"

#include <algorithm>
#include <cstdlib>
#include <ostream>
#include <string>

#include "src/trace/table.h"

namespace msysv {

namespace {

// Resolves the effective simulator worker count (DESIGN.md §12). Parallel
// mode requires both the harness's opt-in (`parallel_ok`: the workload keeps
// partition-safe shared state) and structural eligibility — fault plans,
// lossy circuits, tracing, and page replication all funnel cross-site work
// through shared observers, so those worlds stay serial.
int ResolveSimWorkers(const WorldOptions& opts, int num_sites) {
  if (!opts.parallel_ok || num_sites < 2) {
    return 1;
  }
  if (!opts.faults.empty() || opts.circuit.has_value() || opts.enable_trace ||
      opts.protocol.replicas >= 2) {
    return 1;
  }
  int n = opts.sim_workers;
  if (n == 0) {
    if (const char* env = std::getenv("MIRAGE_SIM_WORKERS")) {
      n = std::atoi(env);
    }
  }
  if (n < 1) {
    n = 1;
  }
  if (n > num_sites) {
    n = num_sites;  // more partitions than sites would idle
  }
  return n;
}

}  // namespace

World::World(int num_sites, WorldOptions opts)
    : costs_(opts.costs), tick_us_(opts.sched.tick_us) {
  // Workers must be configured before anything schedules (events are routed
  // to their partition at schedule time), i.e. before kernels start.
  const int sim_workers = ResolveSimWorkers(opts, num_sites);
  if (sim_workers > 1) {
    sim_.SetWorkers(sim_workers);
    sim_.SetMinLookahead(costs_.MinSendLatency());
  }
  tracer_.SetEnabled(opts.enable_trace);
  net_ = std::make_unique<mnet::Network>(&sim_, &costs_);
  if (opts.circuit.has_value()) {
    net_->SetCircuitOptions(*opts.circuit);
  }
  if (opts.enable_trace) {
    net_->AddObserver([this](const mnet::Packet& pkt, msim::Time t) {
      tracer_.Record(t, pkt.dst, "msg",
                     std::string(mirage::MsgKindName(static_cast<mirage::MsgKind>(pkt.type))) +
                         " site " + std::to_string(pkt.src) + " -> site " +
                         std::to_string(pkt.dst) + " (" + std::to_string(pkt.size_bytes) +
                         " bytes)");
    });
  }
  for (int s = 0; s < num_sites; ++s) {
    kernels_.push_back(std::make_unique<mos::Kernel>(&sim_, net_.get(), s, opts.sched));
    std::unique_ptr<mmem::DsmBackend> backend;
    if (opts.backend_factory) {
      backend = opts.backend_factory(kernels_.back().get(), &registry_, &tracer_);
    } else {
      backend = std::make_unique<mirage::Engine>(kernels_.back().get(), &registry_,
                                                 opts.protocol, &tracer_);
    }
    mmem::DsmBackend* raw = backend.get();
    registry_.AddDestroyObserver([raw](mmem::SegmentId seg) { raw->DropSegment(seg); });
    backends_.push_back(std::move(backend));
    shms_.push_back(std::make_unique<ShmSystem>(kernels_.back().get(), raw, &registry_));
  }
  if (!opts.faults.empty()) {
    std::vector<mos::Kernel*> raw_kernels;
    for (auto& k : kernels_) {
      raw_kernels.push_back(k.get());
    }
    injector_ = std::make_unique<mfault::FaultInjector>(&sim_, net_.get(),
                                                       std::move(raw_kernels), &tracer_);
    injector_->Schedule(opts.faults);
    // Library-site failover: every surviving Mirage engine learns of a
    // crash immediately (the shared liveness table stands in for Locus's
    // topology change notifications). Observers run in ascending site
    // order, so the lowest live attached site elects itself first and the
    // rest see the registry already re-homed.
    injector_->AddCrashObserver([this](mnet::SiteId crashed) {
      for (int s = 0; s < site_count(); ++s) {
        if (s == crashed || !net_->liveness().SiteUp(s)) {
          continue;
        }
        if (mirage::Engine* e = engine(s)) {
          e->OnSiteCrashed(crashed);
        }
      }
    });
    // Site rejoin: by the time this observer runs the injector has already
    // rebooted the revived site's kernel and reset its circuits; re-admit
    // its DSM engine (amnesia + epoch-fenced handshake, DESIGN.md §8).
    injector_->AddRecoverObserver([this](mnet::SiteId revived) {
      if (mirage::Engine* e = engine(revived)) {
        e->Rejoin();
      }
    });
    if (opts.enable_trace) {
      net_->SetDropHook([this](const mnet::Packet& pkt, const char* reason) {
        tracer_.Record(sim_.Now(), pkt.dst, "drop",
                       std::string(reason) + ": " +
                           mirage::MsgKindName(static_cast<mirage::MsgKind>(pkt.type)) +
                           " site " + std::to_string(pkt.src) + " -> site " +
                           std::to_string(pkt.dst));
      });
    }
  }
  // Start backends first (they install packet handlers), then the kernels
  // (which register with the network and spawn interrupt service).
  for (int s = 0; s < num_sites; ++s) {
    backends_[s]->Start();
  }
  for (int s = 0; s < num_sites; ++s) {
    kernels_[s]->Start();
  }
}

World::~World() = default;

mirage::Engine* World::engine(int site) {
  return dynamic_cast<mirage::Engine*>(backends_.at(site).get());
}

void World::RunFor(msim::Duration d) { sim_.RunUntil(sim_.Now() + d); }

mirage::EngineStats World::EngineTotals() {
  mirage::EngineStats sum;
  for (int s = 0; s < site_count(); ++s) {
    if (const mirage::Engine* e = engine(s)) {
      sum += e->stats();
    }
  }
  return sum;
}

void World::PrintReport(std::ostream& os) {
  const mirage::EngineStats sum = EngineTotals();
  os << "simulated time: " << msim::ToMilliseconds(sim_.Now()) << " ms\n";
  const auto& ns = net_->stats();
  os << "network: " << ns.packets << " packets (" << ns.short_packets << " short, "
     << ns.large_packets << " page-carrying), " << ns.payload_bytes << " payload bytes\n";
  if (ns.dropped_no_sink + ns.dropped_site_down + ns.dropped_partitioned + ns.packets_held >
      0) {
    os << "network drops: " << ns.dropped_site_down << " site-down, " << ns.dropped_partitioned
       << " partitioned, " << ns.dropped_no_sink << " no-sink; " << ns.packets_held
       << " held while paused\n";
  }
  if (injector_ != nullptr) {
    const mfault::FaultInjectorStats& fs = injector_->stats();
    const mnet::CircuitStats* cs = net_->circuit_stats();
    os << "faults injected: " << fs.crashes << " crashes, " << fs.pauses << " pauses, "
       << fs.partitions << " partitions (" << fs.heals << " healed), "
       << (cs != nullptr ? cs->circuits_failed : 0) << " circuits declared down\n";
    os << "recovery: " << sum.request_timeouts << " request timeouts, " << sum.faults_failed
       << " faults failed, " << sum.degraded_acks + sum.degraded_invalidations
       << " acks forgiven (degraded), " << sum.ops_failed << " ops failed\n";
    if (sum.elections_won + sum.recoveries_completed + sum.stale_epoch_drops > 0) {
      os << "failover: " << sum.elections_won << " elections, " << sum.recoveries_completed
         << " directories reconstructed, " << sum.pages_recovered << " pages recovered, "
         << sum.pages_lost_in_recovery << " pages lost, " << sum.stale_epoch_drops
         << " stale-epoch packets fenced\n";
    }
    if (fs.recoveries > 0) {
      const double mttr_ms = msim::ToMilliseconds(fs.downtime_us) /
                             static_cast<double>(fs.recoveries);
      os << "rejoin: " << fs.recoveries << " site(s) rejoined (MTTR "
         << mtrace::TextTable::Num(mttr_ms, 1) << " ms), " << sum.rejoin_welcomes
         << " re-admissions answered, " << sum.pages_resurrected << " pages resurrected\n";
    }
  }
  if (sum.replica_writes + sum.quorum_waits + sum.degraded_reads + sum.replica_respreads > 0) {
    os << "replication: " << sum.replica_writes << " replica writes, " << sum.quorum_waits
       << " quorum waits, " << sum.degraded_reads << " degraded reads, "
       << sum.replica_respreads << " re-spreads\n";
  }
  // Library load: one line per site that acted as a segment controller. The
  // mean queue depth is as seen by arriving requests (a load-weighted view).
  for (int s = 0; s < site_count(); ++s) {
    const mirage::Engine* e = engine(s);
    if (e == nullptr) {
      continue;
    }
    const mirage::EngineStats& es = e->stats();
    if (es.lib_enqueues == 0) {
      continue;
    }
    const double mean_depth =
        static_cast<double>(es.lib_queue_depth_sum) / static_cast<double>(es.lib_enqueues);
    os << "library site " << s << ": " << es.requests_processed << " requests processed, "
       << es.lib_enqueues << " enqueued, queue peak " << es.lib_queue_peak << ", mean depth "
       << mtrace::TextTable::Num(mean_depth, 2) << "\n";
  }
  os << "\n";
  mtrace::TextTable t({"site", "cpu busy (ms)", "idle (ms)", "remap (ms)", "ctx switches",
                       "faults r/w", "installs", "upgrades", "downgrades", "invalidations",
                       "refusals"});
  for (int s = 0; s < site_count(); ++s) {
    const mos::KernelStats& ks = kernels_[s]->stats();
    const mirage::Engine* e = engine(s);
    std::string faults = "-";
    std::string installs = "-";
    std::string upgrades = "-";
    std::string downgrades = "-";
    std::string invals = "-";
    std::string refusals = "-";
    if (e != nullptr) {
      const mirage::EngineStats& es = e->stats();
      faults = std::to_string(es.read_faults) + "/" + std::to_string(es.write_faults);
      installs = std::to_string(es.pages_installed);
      upgrades = std::to_string(es.upgrades_received);
      downgrades = std::to_string(es.downgrades_performed);
      invals = std::to_string(es.local_invalidations);
      refusals = std::to_string(es.wait_replies_sent + es.invalidation_retries);
    }
    t.AddRow({mtrace::TextTable::Int(s), mtrace::TextTable::Num(msim::ToMilliseconds(ks.busy_time), 0),
              mtrace::TextTable::Num(msim::ToMilliseconds(ks.idle_time), 0),
              mtrace::TextTable::Num(msim::ToMilliseconds(ks.remap_time), 0),
              mtrace::TextTable::Int(static_cast<long long>(ks.context_switches)), faults,
              installs, upgrades, downgrades, invals, refusals});
  }
  t.Print(os);
  for (int s = 0; s < site_count(); ++s) {
    const mirage::Engine* e = engine(s);
    if (e != nullptr && (e->read_fault_latency().count() > 0 ||
                         e->write_fault_latency().count() > 0)) {
      e->read_fault_latency().Print(os, "site " + std::to_string(s) + " read-fault latency");
      e->write_fault_latency().Print(os, "site " + std::to_string(s) + " write-fault latency");
    }
  }
}

bool World::RunUntil(const std::function<bool()>& done, msim::Duration max_time) {
  msim::Time deadline = sim_.Now() + max_time;
  while (sim_.Now() < deadline) {
    if (done()) {
      return true;
    }
    sim_.RunUntil(std::min<msim::Time>(sim_.Now() + tick_us_, deadline));
  }
  return done();
}

}  // namespace msysv
