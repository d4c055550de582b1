#include "src/exp/run.h"

#include <algorithm>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "src/baseline/li_engine.h"
#include "src/mirage/invariants.h"
#include "src/sysv/world.h"
#include "src/workload/background.h"
#include "src/workload/dotproduct.h"
#include "src/workload/kvstore.h"
#include "src/workload/matrix.h"
#include "src/workload/pingpong.h"
#include "src/workload/readwriters.h"
#include "src/workload/scalability.h"
#include "src/workload/spinlock.h"
#include "src/workload/tsp.h"

namespace mexp {

namespace {

// Workloads whose shared result state is partition-safe (per-site slots,
// out-of-band cells) and may therefore run on the parallel simulator core.
// World still applies its own structural gates (no faults/circuit/trace/
// replication), so listing a workload here never changes its results — only
// how many host threads may execute it.
bool ParallelSafeWorkload(const std::string& w) {
  return w == "readwriters" || w == "pingpong" || w == "scalability" || w == "kvstore";
}

msysv::WorldOptions BuildWorldOptions(const RunConfig& cfg) {
  msysv::WorldOptions opts;
  if (!mnet::CostModel::FromName(cfg.cost_preset, &opts.costs)) {
    throw std::runtime_error("unknown cost preset '" + cfg.cost_preset + "'");
  }
  opts.parallel_ok = ParallelSafeWorkload(cfg.workload);
  opts.enable_trace = cfg.trace;
  opts.sched.quantum_ticks = cfg.quantum_ticks;
  opts.protocol.default_window_us = cfg.delta_ms * msim::kMillisecond;
  opts.protocol.parallel_page_ops = cfg.parallel_lib;
  opts.protocol.replicas = cfg.replicas;
  if (cfg.loss > 0.0) {
    opts.circuit = mnet::CircuitOptions{};
    opts.circuit->loss_probability = cfg.loss;
    opts.circuit->loss_seed = cfg.seed;
  }
  if (!cfg.faults.empty()) {
    opts.faults = cfg.faults;
    // Recovery timeouts: the paper's wait-forever defaults would hang any
    // client of a crashed library site, and with it the whole sweep.
    opts.protocol.request_timeout_us = 250 * msim::kMillisecond;
    opts.protocol.max_request_attempts = 5;
    opts.protocol.ack_timeout_us = 250 * msim::kMillisecond;
    opts.protocol.op_timeout_us = 2 * msim::kSecond;
    if (opts.circuit.has_value()) {
      opts.circuit->force_sequencing = true;  // heal recovers by retransmit
    }
  }
  if (cfg.baseline) {
    opts.backend_factory = [](mos::Kernel* k, mirage::SegmentRegistry* reg,
                              mtrace::Tracer*) -> std::unique_ptr<mmem::DsmBackend> {
      return std::make_unique<mbase::LiEngine>(k, reg);
    };
  }
  return opts;
}

// Shared post-run counters: simulated time, network totals, summed Mirage
// engine statistics, and the merged fault-latency histograms.
void CollectCommon(msysv::World& world, RunResult* out) {
  out->metrics["sim_time_ms"] = msim::ToMilliseconds(world.sim().Now());
  const mnet::NetworkStats& ns = world.network().stats();
  out->metrics["net_packets"] = static_cast<double>(ns.packets);
  out->metrics["net_short_packets"] = static_cast<double>(ns.short_packets);
  out->metrics["net_large_packets"] = static_cast<double>(ns.large_packets);
  out->metrics["net_payload_bytes"] = static_cast<double>(ns.payload_bytes);
  if (const mnet::CircuitStats* cs = world.network().circuit_stats()) {
    out->metrics["circuit_drops"] = static_cast<double>(cs->frames_dropped);
    out->metrics["circuit_retransmits"] = static_cast<double>(cs->retransmits);
    out->metrics["circuit_duplicates"] = static_cast<double>(cs->duplicates_suppressed);
  }
  const mirage::EngineStats sum = world.EngineTotals();
  std::vector<mirage::Engine*> engines;
  std::uint64_t busiest_lib = 0;  // most library requests processed by one site
  for (int s = 0; s < world.site_count(); ++s) {
    mirage::Engine* e = world.engine(s);
    if (e == nullptr) {
      continue;
    }
    engines.push_back(e);
    busiest_lib = std::max(busiest_lib, e->stats().requests_processed);
    out->read_latency.Merge(e->read_fault_latency());
    out->write_latency.Merge(e->write_fault_latency());
  }
  if (!engines.empty()) {
    out->metrics["read_faults"] = static_cast<double>(sum.read_faults);
    out->metrics["write_faults"] = static_cast<double>(sum.write_faults);
    out->metrics["pages_installed"] = static_cast<double>(sum.pages_installed);
    out->metrics["upgrades"] = static_cast<double>(sum.upgrades_received);
    out->metrics["downgrades"] = static_cast<double>(sum.downgrades_performed);
    out->metrics["invalidations"] = static_cast<double>(sum.local_invalidations);
    out->metrics["refusals"] = static_cast<double>(sum.wait_replies_sent);
    out->metrics["request_timeouts"] = static_cast<double>(sum.request_timeouts);
    out->metrics["faults_failed"] = static_cast<double>(sum.faults_failed);
    out->metrics["degraded_acks"] =
        static_cast<double>(sum.degraded_acks + sum.degraded_invalidations);
    out->metrics["ops_failed"] = static_cast<double>(sum.ops_failed);
    out->metrics["elections"] = static_cast<double>(sum.elections_won);
    out->metrics["recoveries"] = static_cast<double>(sum.recoveries_completed);
    out->metrics["pages_recovered"] = static_cast<double>(sum.pages_recovered);
    out->metrics["pages_lost"] = static_cast<double>(sum.pages_lost_in_recovery);
    out->metrics["stale_epoch_drops"] = static_cast<double>(sum.stale_epoch_drops);
    out->metrics["recovery_replies"] = static_cast<double>(sum.recovery_replies_sent);
    out->metrics["fail_notices_sent"] = static_cast<double>(sum.fail_notices_sent);
    out->metrics["fail_notices_received"] = static_cast<double>(sum.fail_notices_received);
    out->metrics["replica_writes"] = static_cast<double>(sum.replica_writes);
    out->metrics["quorum_waits"] = static_cast<double>(sum.quorum_waits);
    out->metrics["degraded_reads"] = static_cast<double>(sum.degraded_reads);
    out->metrics["replica_respreads"] = static_cast<double>(sum.replica_respreads);
    // Library load: the centralized-controller bottleneck (ROADMAP scale-out).
    out->metrics["lib_requests"] = static_cast<double>(sum.requests_processed);
    out->metrics["lib_queue_peak"] = static_cast<double>(sum.lib_queue_peak);
    out->metrics["lib_queue_mean_depth"] =
        sum.lib_enqueues > 0 ? static_cast<double>(sum.lib_queue_depth_sum) /
                                   static_cast<double>(sum.lib_enqueues)
                             : 0.0;
    out->metrics["lib_load_max_share"] =
        sum.requests_processed > 0 ? static_cast<double>(busiest_lib) /
                                         static_cast<double>(sum.requests_processed)
                                   : 0.0;
  }
  // Site rejoin (MTTR/downtime): emitted only when a rejoin actually
  // occurred, so reports from fault plans without RecoverAt events stay
  // byte-identical to pre-rejoin v2 reports.
  if (mfault::FaultInjector* inj = world.faults()) {
    const mfault::FaultInjectorStats& fs = inj->stats();
    if (fs.recoveries > 0) {
      out->metrics["site_rejoins"] = static_cast<double>(fs.recoveries);
      out->metrics["mttr_ms"] =
          msim::ToMilliseconds(fs.downtime_us) / static_cast<double>(fs.recoveries);
      out->metrics["resurrected_pages"] = static_cast<double>(sum.pages_resurrected);
      out->metrics["rejoin_welcomes"] = static_cast<double>(sum.rejoin_welcomes);
      // Post-rejoin acceptance: every surviving page must be back at full
      // k-standby coverage and the coherence/directory invariants must hold
      // at quiescence. Violations gate the run like any other regression.
      mirage::InvariantChecker checker(engines);
      const mirage::InvariantReport full = checker.CheckFull(world.registry());
      const mirage::InvariantReport cov = checker.CheckReplicaCoverage(world.registry());
      out->metrics["rejoin_invariant_violations"] =
          static_cast<double>(full.violations.size() + cov.violations.size());
    }
  }
}

}  // namespace

RunResult ExecuteRun(const RunConfig& cfg, const WorldHook& on_finish) {
  RunResult out;
  if (!KnownWorkload(cfg.workload)) {
    out.error = "unknown workload '" + cfg.workload + "'";
    return out;
  }
  try {
    msysv::World world(cfg.sites, BuildWorldOptions(cfg));

    // Under faults a workload client may get EIDRM (library/clock site
    // gone); that is a measured outcome, not a harness error.
    bool aborted = false;
    auto run_until = [&](const std::function<bool()>& done) {
      try {
        return world.RunUntil(done, cfg.max_time_us);
      } catch (const msysv::PageFaultError&) {
        aborted = true;
        return false;
      }
    };

    // A nonzero library_site pre-creates the workload's segment there, so a
    // fault plan can crash a pure-controller library site while the workload
    // processes (who find the existing key) all survive. The two spin-loop
    // workloads used by the failover experiments honour it.
    auto prehome = [&world, &cfg](std::uint64_t key, std::uint32_t bytes) {
      if (cfg.library_site > 0 && cfg.library_site < cfg.sites) {
        (void)world.shm(cfg.library_site).Shmget(key, bytes, /*create=*/true);
      }
    };

    bool completed = false;
    if (cfg.workload == "readwriters") {
      mwork::ReadWritersParams prm;
      prm.iterations = cfg.iterations;
      prm.segment_bytes = cfg.segment_bytes;
      prehome(prm.key, prm.segment_bytes);
      prm.start_offset_us = cfg.start_offset_us;
      prm.site_b = cfg.sites >= 2 ? 1 : 0;
      auto r = mwork::LaunchReadWriters(world, prm);
      std::shared_ptr<mwork::BackgroundResult> bg;
      if (cfg.with_background) {
        mwork::BackgroundParams bprm;
        bprm.site = 0;
        bprm.unit_cost_us = 1000;
        bg = mwork::LaunchBackground(world, bprm);
      }
      completed = run_until([&] { return r->completed(); });
      out.metrics["throughput"] = r->OpsPerSecond();
      out.metrics["total_ops"] = static_cast<double>(r->total_ops());
      if (bg != nullptr) {
        out.metrics["background_units_per_s"] = bg->UnitsPerSecond();
      }
    } else if (cfg.workload == "pingpong") {
      mwork::PingPongParams prm;
      prm.rounds = cfg.rounds;
      prm.use_yield = cfg.use_yield;
      prm.site_b = cfg.sites >= 2 ? 1 : 0;
      prehome(prm.key, prm.segment_bytes);
      auto r = mwork::LaunchPingPong(world, prm);
      completed = run_until([&] { return r->completed(); });
      out.metrics["throughput"] = r->CyclesPerSecond();
      out.metrics["cycles"] = static_cast<double>(r->cycles);
    } else if (cfg.workload == "spinlock") {
      mwork::SpinlockParams prm;
      prm.use_yield = cfg.use_yield;
      prm.site_b = cfg.sites >= 2 ? 1 : 0;
      auto r = mwork::LaunchSpinlock(world, prm);
      completed = run_until([&] { return r->completed; });
      out.metrics["throughput"] = r->SectionsPerSecond();
      out.metrics["mutex_held"] =
          r->final_counter == static_cast<std::uint64_t>(2 * 30 * 4) ? 1.0 : 0.0;
    } else if (cfg.workload == "scalability") {
      mwork::ScalabilityParams prm;
      prm.rounds = cfg.rounds;
      auto r = mwork::LaunchScalability(world, prm);
      completed = run_until([&] { return r->completed; });
      out.metrics["mean_write_latency_ms"] = r->MeanWriteLatencyMs();
      out.metrics["invalidations_per_round"] =
          static_cast<double>(world.EngineTotals().local_invalidations) /
          static_cast<double>(prm.rounds);
    } else if (cfg.workload == "matrix") {
      mwork::MatrixParams prm;
      prm.n = cfg.matrix_n;
      prm.workers = cfg.sites;
      auto r = mwork::LaunchMatrixMultiply(world, prm);
      completed = run_until([&] { return r->completed; });
      out.metrics["elapsed_s"] = r->ElapsedSeconds();
      out.metrics["verified"] = r->verified ? 1.0 : 0.0;
    } else if (cfg.workload == "dot") {
      mwork::DotProductParams prm;
      prm.length = cfg.dot_length;
      prm.workers = cfg.sites;
      auto r = mwork::LaunchDotProduct(world, prm);
      completed = run_until([&] { return r->completed; });
      out.metrics["elapsed_s"] = r->ElapsedSeconds();
      out.metrics["verified"] = r->verified ? 1.0 : 0.0;
    } else if (cfg.workload == "tsp") {
      mwork::TspParams prm;
      prm.cities = cfg.tsp_cities;
      prm.workers = cfg.sites;
      auto r = mwork::LaunchTsp(world, prm);
      completed = run_until([&] { return r->completed; });
      out.metrics["elapsed_s"] = r->ElapsedSeconds();
      out.metrics["verified"] = r->verified ? 1.0 : 0.0;
      out.metrics["nodes_expanded"] = static_cast<double>(r->nodes_expanded);
    } else if (cfg.workload == "kvstore") {
      mwork::KvStoreParams prm;
      prm.keys = cfg.kv_keys;
      prm.value_words = cfg.kv_value_words;
      prm.zipf_s = cfg.zipf_s;
      prm.get_mix = cfg.get_mix;
      prm.arrival_per_s = cfg.kv_arrival_per_s;
      prm.ops_per_site = cfg.kv_ops_per_site;
      prm.workers_per_site = cfg.kv_workers;
      prm.shards = cfg.kv_shards;
      prm.kv_replicas = static_cast<std::uint32_t>(cfg.kv_replicas);
      prm.seed = cfg.seed;
      auto r = mwork::LaunchKvStore(world, prm);
      completed = run_until([&] { return r->completed(); });
      out.metrics["throughput"] = r->OpsPerSecond();
      out.metrics["kv_gets"] = static_cast<double>(r->gets());
      out.metrics["kv_sets"] = static_cast<double>(r->sets());
      out.metrics["kv_misses"] = static_cast<double>(r->misses());
      out.metrics["kv_torn_reads"] = static_cast<double>(r->torn_reads());
      out.metrics["kv_integrity_failures"] = static_cast<double>(r->integrity_failures());
      out.metrics["kv_queue_peak"] = static_cast<double>(r->queue_peak());
      out.metrics["kv_queue_mean_depth"] = r->MeanQueueDepth();
      const mtrace::LatencyHistogram kv_get_hist = r->get_latency();
      const mtrace::LatencyHistogram kv_set_hist = r->set_latency();
      out.metrics["kv_get_mean_ms"] = kv_get_hist.MeanMs();
      out.metrics["kv_get_p50_ms"] = kv_get_hist.PercentileMs(0.50);
      out.metrics["kv_get_p95_ms"] = kv_get_hist.PercentileMs(0.95);
      out.metrics["kv_get_p99_ms"] = kv_get_hist.PercentileMs(0.99);
      out.metrics["kv_set_mean_ms"] = kv_set_hist.MeanMs();
      out.metrics["kv_set_p50_ms"] = kv_set_hist.PercentileMs(0.50);
      out.metrics["kv_set_p95_ms"] = kv_set_hist.PercentileMs(0.95);
      out.metrics["kv_set_p99_ms"] = kv_set_hist.PercentileMs(0.99);
    }

    out.metrics["completed"] = completed ? 1.0 : 0.0;
    out.metrics["aborted"] = aborted ? 1.0 : 0.0;
    CollectCommon(world, &out);
    if (on_finish) {
      on_finish(world, out);
    }
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

}  // namespace mexp
