// e2e_bench: one run of one benchmark workload, or the self-test.
//
//   e2e_bench --workload=NAME --seed=N --pass=untraced|traced [--trace-out=FILE]
//   e2e_bench --selftest
//
// A run prints one JSON object on stdout: host time of the measured phase,
// the steady-clock instant set-up ended (so the parent can time set-up from
// before it started this process), its peak resident memory, the run's
// fingerprint, correctness
// errors and, in the traced pass, every simulated-time metric. Exit status
// is 0 when the run is correct, 1 when a check failed, 2 on bad arguments.
// bench/e2e/run.py builds and drives this program; see README.md.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/e2e/percentile.h"
#include "bench/e2e/recorder.h"
#include "bench/e2e/workloads.h"
#include "src/exp/json.h"
#include "src/mirage/invariants.h"

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

// Ten times the simulated length of the longest workload (kv_zipf).
constexpr msim::Duration kSimCap = 60000 * msim::kSecond;
// Time for in-flight acks to land before the directory invariants are checked.
constexpr msim::Duration kQuiesce = 2 * msim::kSecond;
constexpr std::size_t kTraceCap = 200000;

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

// Peak resident set of this process since exec (VmHWM), 0 if unknown.
// getrusage's ru_maxrss will not do: it also counts the resident set the
// parent had when it forked this process, and run.py's is larger than most
// workloads'.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Mean(const std::vector<std::int64_t>& v) {
  double sum = 0;
  for (std::int64_t x : v) {
    sum += static_cast<double>(x);
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// Layer counters read through each module's public stats, plus the fault
// percentiles and their decomposition from the recorder.
void AddLayerMetrics(msysv::World& world, const Workload& wl, const Recorder& rec,
                     mexp::Json* m, Checks* checks) {
  const double ops = static_cast<double>(wl.completed());

  mos::KernelStats os;
  for (int s = 0; s < world.site_count(); ++s) {
    const mos::KernelStats& k = world.kernel(s).stats();
    os.busy_time += k.busy_time;
    os.idle_time += k.idle_time;
    os.remap_time += k.remap_time;
    os.context_switches += k.context_switches;
  }
  m->Set("os.cpu_busy_share", Ratio(static_cast<double>(os.busy_time),
                                    static_cast<double>(os.busy_time + os.idle_time)));
  m->Set("os.remap_share",
         Ratio(static_cast<double>(os.remap_time), static_cast<double>(os.busy_time)));
  m->Set("os.ctx_switches_per_op", Ratio(static_cast<double>(os.context_switches), ops));

  mirage::EngineStats es;
  std::uint64_t busiest_lib = 0;
  for (const mirage::Engine* e : rec.engines()) {
    const mirage::EngineStats& x = e->stats();
    es.write_faults += x.write_faults;
    es.remote_requests_sent += x.remote_requests_sent;
    es.local_requests += x.local_requests;
    es.requests_processed += x.requests_processed;
    es.upgrades_received += x.upgrades_received;
    es.local_invalidations += x.local_invalidations;
    es.wait_replies_sent += x.wait_replies_sent;
    es.quorum_waits += x.quorum_waits;
    es.lib_enqueues += x.lib_enqueues;
    es.lib_queue_depth_sum += x.lib_queue_depth_sum;
    es.lib_queue_peak = std::max(es.lib_queue_peak, x.lib_queue_peak);
    busiest_lib = std::max(busiest_lib, x.requests_processed);
  }

  std::vector<std::int64_t> latency;
  std::size_t reads = 0;
  std::size_t failed = 0;
  for (const FaultSpan& s : rec.spans()) {
    latency.push_back(s.end - s.start);
    reads += s.write ? 0 : 1;
    failed += s.status == mmem::FaultStatus::kOk ? 0 : 1;
  }
  latency = Sorted(std::move(latency));
  const double faults = static_cast<double>(latency.size());
  checks->Require(failed == 0, std::to_string(failed) + " faults did not return ok");
  checks->Require(Reportable(latency.size(), 99),
                  "only " + std::to_string(latency.size()) + " fault samples");

  const mnet::NetworkStats& net = world.network().stats();
  m->Set("net.msgs_per_fault", Ratio(static_cast<double>(net.packets), faults));
  m->Set("net.page_msgs_per_fault", Ratio(static_cast<double>(net.large_packets), faults));
  m->Set("net.bytes_per_op", Ratio(static_cast<double>(net.payload_bytes), ops));
  constexpr auto kLastKind = static_cast<std::uint32_t>(mirage::MsgKind::kRejoinWelcome);
  for (std::uint32_t k = 1; k <= kLastKind; ++k) {
    const auto it = net.packets_by_type.find(k);
    m->Set(std::string("net.kind.") + mirage::MsgKindName(static_cast<mirage::MsgKind>(k)),
           static_cast<double>(it == net.packets_by_type.end() ? 0 : it->second));
  }

  const double writes = static_cast<double>(es.write_faults);
  m->Set("mirage.faults", faults);
  m->Set("mirage.faults_per_op", Ratio(faults, ops));
  m->Set("mirage.read_fault_share", Ratio(static_cast<double>(reads), faults));
  m->Set("mirage.remote_request_share",
         Ratio(static_cast<double>(es.remote_requests_sent),
               static_cast<double>(es.remote_requests_sent + es.local_requests)));
  m->Set("mirage.lib_queue_mean_depth", Ratio(static_cast<double>(es.lib_queue_depth_sum),
                                              static_cast<double>(es.lib_enqueues)));
  m->Set("mirage.lib_queue_peak", static_cast<double>(es.lib_queue_peak));
  m->Set("mirage.lib_load_max_share", Ratio(static_cast<double>(busiest_lib),
                                            static_cast<double>(es.requests_processed)));
  m->Set("mirage.refusal_ratio", Ratio(static_cast<double>(es.wait_replies_sent),
                                       static_cast<double>(es.requests_processed)));
  m->Set("mirage.invalidations_per_write_fault",
         Ratio(static_cast<double>(es.local_invalidations), writes));
  m->Set("mirage.quorum_waits_per_write", Ratio(static_cast<double>(es.quorum_waits), writes));
  m->Set("mirage.upgrade_share", Ratio(static_cast<double>(es.upgrades_received), writes));

  const FaultDecomposition d = rec.Decompose();
  checks->Require(d.identity_violations == 0,
                  std::to_string(d.identity_violations) + " faults break out+service+in");
  m->Set("mirage.fault_out_ms", Mean(d.out_us) / 1000.0);
  m->Set("mirage.fault_service_ms", Mean(d.service_us) / 1000.0);
  m->Set("mirage.fault_in_ms", Mean(d.in_us) / 1000.0);
  m->Set("mirage.fault_service_p99_ms", PercentileMs(Sorted(d.service_us), 99));
  m->Set("mirage.fault_local_share", Ratio(static_cast<double>(d.local), faults));

  m->Set("fault_p50_ms", PercentileMs(latency, 50));
  m->Set("fault_p99_ms", PercentileMs(latency, 99));
}

int RunWorkload(const std::string& name, std::uint64_t seed, bool traced,
                const std::string& trace_out) {
  std::unique_ptr<Workload> wl = MakeWorkload(name, seed);
  if (wl == nullptr) {
    std::fprintf(stderr, "e2e_bench: unknown workload %s\n", name.c_str());
    return 2;
  }
  Recorder rec;
  msysv::WorldOptions opts = wl->Options(traced);
  if (traced) {
    rec.InstallBackends(&opts);
  }
  msysv::World world(wl->sites(), opts);
  if (traced) {
    rec.Observe(&world.network());
  }
  wl->Launch(world);

  const Clock::time_point setup_end = Clock::now();
  const std::uint64_t events_before = world.sim().ProcessedEvents();
  const bool done = world.RunUntil([&wl] { return wl->Done(); }, kSimCap);
  const double host_s = Seconds(Clock::now() - setup_end);

  mexp::Json fp = mexp::Json::Object();
  fp.Set("sim_now_us", static_cast<std::int64_t>(world.sim().Now()));
  fp.Set("events", world.sim().ProcessedEvents());
  fp.Set("packets", world.network().stats().packets);
  fp.Set("sim_tput", wl->SimTput());
  mexp::Json metrics = mexp::Json::Object();
  metrics.Set("sim.events", world.sim().ProcessedEvents() - events_before);
  metrics.Set("sim.workers_effective", world.sim().workers());
  world.RunFor(kQuiesce);

  Checks checks;
  checks.Require(done, "workload did not complete within the simulated-time cap");
  wl->Check(&checks);
  std::vector<mirage::Engine*> engines = rec.engines();
  if (!traced) {
    for (int s = 0; s < world.site_count(); ++s) {
      engines.push_back(world.engine(s));
    }
  }
  mirage::InvariantChecker invariants(engines);
  for (const std::string& v : invariants.CheckFull(world.registry()).violations) {
    checks.errors.push_back("invariant: " + v);
  }
  if (opts.protocol.replicas >= 2) {
    for (const std::string& v : invariants.CheckReplicaCoverage(world.registry()).violations) {
      checks.errors.push_back("replica coverage: " + v);
    }
  }
  if (traced) {
    metrics.Set("sim_tput", wl->SimTput());
    AddLayerMetrics(world, *wl, rec, &metrics, &checks);
    wl->AddMetrics(&metrics);
    if (!trace_out.empty() && !rec.WriteChromeTrace(trace_out, kTraceCap)) {
      checks.errors.push_back("cannot write " + trace_out);
    }
  }

  const double peak_rss_mb = PeakRssMb();
  checks.Require(peak_rss_mb > 0, "cannot read VmHWM from /proc/self/status");

  mexp::Json out = mexp::Json::Object();
  out.Set("workload", name);
  out.Set("pass", traced ? "traced" : "untraced");
  out.Set("seed", seed);
  out.Set("setup_end_mono_s", Seconds(setup_end.time_since_epoch()));
  out.Set("host_s", host_s);
  out.Set("peak_rss_mb", peak_rss_mb);
  out.Set("fingerprint", std::move(fp));
  out.Set("attempted", wl->attempted());
  out.Set("failed", wl->attempted() - std::min(wl->attempted(), wl->completed()));
  mexp::Json errors = mexp::Json::Array();
  for (const std::string& e : checks.errors) {
    errors.Push(e);
  }
  out.Set("errors", std::move(errors));
  out.Set("metrics", std::move(metrics));
  std::cout << out.ToString() << "\n";
  return checks.errors.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------------

int SelfTest() {
  Checks c;
  auto expect = [&c](bool ok, const std::string& what) { c.Require(ok, "selftest: " + what); };

  const std::vector<std::int64_t> five = {1, 2, 3, 4, 5};
  expect(Percentile(five, 50) == 3, "p50 of 1..5 is 3");
  expect(Percentile(five, 20) == 1, "p20 of 1..5 is 1");
  expect(Percentile(five, 21) == 2, "p21 of 1..5 is 2");
  expect(Percentile(five, 99) == 5, "p99 of 1..5 is 5");
  expect(Percentile(five, 100) == 5, "p100 of 1..5 is 5");
  expect(Percentile({}, 50) == 0, "no samples give 0");
  std::vector<std::int64_t> thousand;
  for (int i = 1; i <= 1000; ++i) {
    thousand.push_back(i);
  }
  expect(Percentile(thousand, 50) == 500, "p50 of 1..1000 is 500");
  expect(Percentile(thousand, 99) == 990, "p99 of 1..1000 is 990");
  expect(Percentile(thousand, 99.9) == 999, "p99.9 of 1..1000 is 999");
  // A bucketed histogram reports a single 43 ms sample as its 64 ms bucket
  // edge; a nearest rank is always one of the samples.
  expect(Percentile({43000}, 50) == 43000, "p50 of one sample is that sample");
  expect(Percentile({41000, 43000}, 99) == 43000, "p99 never exceeds the maximum");
  // A percentile needs 10 samples beyond its rank: p50 from 20 samples, p90
  // from 100, p99 from 1000 (rank 990), p99.9 from 10000.
  expect(Reportable(20, 50) && !Reportable(19, 50), "p50 reportable from 20 samples");
  expect(Reportable(100, 90) && !Reportable(99, 90), "p90 reportable from 100 samples");
  expect(Reportable(1000, 99) && !Reportable(999, 99), "p99 reportable from 1000 samples");
  expect(Reportable(10000, 99.9) && !Reportable(9999, 99.9), "p99.9 reportable from 10000");
  expect(!Reportable(0, 50), "no samples report nothing");

  // One remote read fault on a 2-site world: the library (site 0) grants the
  // empty page to site 1, and the three parts must sum to its latency.
  Recorder rec;
  msysv::WorldOptions opts;
  rec.InstallBackends(&opts);
  msysv::World world(2, opts);
  rec.Observe(&world.network());
  const int id = world.shm(0).Shmget(42, 512, /*create=*/true).value();
  bool read = false;
  world.kernel(1).Spawn("reader", mos::Priority::kUser,
                        [&world, id, &read](mos::Process* p) -> msim::Task<> {
                          const mmem::VAddr a = world.shm(1).Shmat(p, id).value();
                          co_await world.shm(1).ReadWord(p, a);
                          read = true;
                        });
  world.RunUntil([&read] { return read; }, msim::kSecond);
  const FaultDecomposition d = rec.Decompose();
  expect(read && rec.spans().size() == 1, "one fault recorded");
  expect(d.out_us.size() == 1 && d.local == 0 && d.unmatched == 0, "the fault is matched");
  if (d.out_us.size() == 1 && rec.spans().size() == 1) {
    const FaultSpan& s = rec.spans()[0];
    expect(d.out_us[0] + d.service_us[0] + d.in_us[0] == s.end - s.start,
           "out + service + in equals the fault latency");
    expect(d.out_us[0] > 0 && d.service_us[0] > 0 && d.in_us[0] > 0, "every part is positive");
  }

  for (const std::string& e : c.errors) {
    std::fprintf(stderr, "%s\n", e.c_str());
  }
  std::printf("selftest %s\n", c.errors.empty() ? "ok" : "FAILED");
  return c.errors.empty() ? 0 : 1;
}

}  // namespace

}  // namespace e2e

int main(int argc, char** argv) {
  std::string workload;
  std::string pass;
  std::string trace_out;
  std::uint64_t seed = 1;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (arg == "--selftest") {
      selftest = true;
    } else if (flag == "--workload") {
      workload = value;
    } else if (flag == "--pass") {
      pass = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      std::fprintf(stderr, "e2e_bench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (selftest) {
    return e2e::SelfTest();
  }
  if (workload.empty() || (pass != "untraced" && pass != "traced")) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload=NAME --seed=N --pass=untraced|traced "
                 "[--trace-out=FILE] | --selftest\n");
    return 2;
  }
  return e2e::RunWorkload(workload, seed, pass == "traced", trace_out);
}
