#include "bench/e2e/workloads.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "bench/e2e/percentile.h"
#include "src/dsmlib/dist_hashmap.h"
#include "src/sim/random.h"
#include "src/workload/pingpong.h"
#include "src/workload/readwriters.h"

namespace e2e {

namespace {

constexpr msim::Duration kMs = 1000;

// Every workload runs on the paper's calibrated 10 Mbit Ethernet costs.
msysv::WorldOptions BaseOptions(msim::Duration window_us) {
  msysv::WorldOptions opts;
  opts.costs = mnet::CostModel::Ethernet1989();
  opts.protocol.default_window_us = window_us;
  opts.sim_workers = 1;
  return opts;
}

// An independent random stream per (seed, stream id). msim::Rng is SplitMix64,
// whose state advances by a fixed increment per draw: seeds that differ by a
// multiple of that increment yield shifted copies of one stream, which would
// correlate the sites. Hashing the seed first avoids that.
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  return msim::Rng(seed ^ (0xD1B54A32D192ED03ULL * (stream + 1))).Next();
}

// Stream ids: daemons use the site number, kv arrivals kKvStreams + site,
// read-writer start offsets kOffsetStreams + pair.
constexpr std::uint64_t kKvStreams = 1000;
constexpr std::uint64_t kOffsetStreams = 2000;

// Background activity drawn from the seed: each site runs a kernel-priority
// daemon that sleeps an exponential gap (mean kDaemonGapUs) and then computes
// for 0.1-1 ms. Without it the workloads phase-lock to the clock tick, and
// every seed gives the same fault latencies to the microsecond.
constexpr double kDaemonGapUs = 100 * kMs;

void SpawnDaemons(msysv::World& world, std::uint64_t seed) {
  for (int s = 0; s < world.site_count(); ++s) {
    world.kernel(s).Spawn(
        "daemon", mos::Priority::kKernel, [&world, s, seed](mos::Process* p) -> msim::Task<> {
          msim::Rng rng(StreamSeed(seed, static_cast<std::uint64_t>(s)));
          mos::Kernel& kernel = world.kernel(s);
          for (;;) {
            const double gap = -std::log(1.0 - rng.NextDouble()) * kDaemonGapUs;
            co_await kernel.SleepFor(p, static_cast<msim::Duration>(gap) + 1);
            co_await kernel.Compute(p, 100 + static_cast<msim::Duration>(rng.Below(900)));
          }
        });
  }
}

// ---------------------------------------------------------------------------
// fig8_rw and multiseg_w2: `pairs` independent read-writer pairs (Figure 8's
// loop), pair i on sites 2i and 2i+1 and its own segment.
class ReadWriters final : public Workload {
 public:
  ReadWriters(std::uint64_t seed, int pairs, msim::Duration window_us, int iterations,
              int workers)
      : seed_(seed),
        pairs_(pairs),
        window_us_(window_us),
        iterations_(iterations),
        workers_(workers) {}

  int sites() const override { return 2 * pairs_; }

  msysv::WorldOptions Options(bool traced) const override {
    msysv::WorldOptions opts = BaseOptions(window_us_);
    // LaunchReadWriters keeps per-site accumulators, so it is partition-safe.
    opts.parallel_ok = true;
    opts.sim_workers = traced ? 1 : workers_;
    return opts;
  }

  void Launch(msysv::World& world) override {
    SpawnDaemons(world, seed_);
    for (int p = 0; p < pairs_; ++p) {
      mwork::ReadWritersParams prm;
      prm.site_a = 2 * p;
      prm.site_b = 2 * p + 1;
      prm.key = 500 + static_cast<std::uint64_t>(p);
      prm.iterations = iterations_;
      // Process B starts at a seed-drawn phase within one window.
      prm.start_offset_us = static_cast<msim::Duration>(
          msim::Rng(StreamSeed(seed_, kOffsetStreams + static_cast<std::uint64_t>(p)))
              .Below(static_cast<std::uint64_t>(window_us_)));
      results_.push_back(mwork::LaunchReadWriters(world, prm));
    }
  }

  bool Done() const override {
    return std::all_of(results_.begin(), results_.end(),
                       [](const auto& r) { return r->completed(); });
  }

  // Each loop iteration is one read and one write, plus the final read that
  // sees zero: Figure 8's "read-write instructions".
  std::uint64_t attempted() const override {
    return static_cast<std::uint64_t>(pairs_) * 2 *
           (2 * static_cast<std::uint64_t>(iterations_) + 1);
  }
  std::uint64_t completed() const override {
    std::uint64_t n = 0;
    for (const auto& r : results_) {
      n += r->total_ops();
    }
    return n;
  }

  double SimTput() const override {
    msim::Time start = 0;
    msim::Time end = 0;
    for (const auto& r : results_) {
      start = start == 0 ? r->start_time() : std::min(start, r->start_time());
      end = std::max(end, r->end_time());
    }
    return end > start ? static_cast<double>(completed()) / msim::ToSeconds(end - start) : 0.0;
  }

  void Check(Checks* checks) const override {
    const std::uint64_t per_process = 2 * static_cast<std::uint64_t>(iterations_) + 1;
    for (std::size_t p = 0; p < results_.size(); ++p) {
      for (const auto& slot : results_[p]->slots) {
        checks->Require(slot.done && slot.ops == per_process,
                        "pair " + std::to_string(p) + ": process ran " + std::to_string(slot.ops) +
                            " ops, want " + std::to_string(per_process));
      }
    }
  }

 private:
  std::uint64_t seed_;
  int pairs_;
  msim::Duration window_us_;
  int iterations_;
  int workers_;
  std::vector<std::shared_ptr<mwork::ReadWritersResult>> results_;
};

// ---------------------------------------------------------------------------
// ring4_k2: the N-site token ring of Figure 4 with quorum replication.
class Ring final : public Workload {
 public:
  Ring(std::uint64_t seed, int sites, int rounds) : seed_(seed), sites_(sites), rounds_(rounds) {}

  int sites() const override { return sites_; }

  msysv::WorldOptions Options(bool /*traced*/) const override {
    // One tick: the paper's E7 setting. Replication keeps the world serial.
    msysv::WorldOptions opts = BaseOptions(16667);
    opts.protocol.replicas = 2;
    return opts;
  }

  void Launch(msysv::World& world) override {
    SpawnDaemons(world, seed_);
    mwork::RingPingPongParams prm;
    prm.rounds = rounds_;
    result_ = mwork::LaunchRingPingPong(world, prm);
  }

  bool Done() const override { return result_->completed(); }
  std::uint64_t attempted() const override { return static_cast<std::uint64_t>(rounds_); }
  std::uint64_t completed() const override { return static_cast<std::uint64_t>(result_->cycles); }
  double SimTput() const override { return result_->CyclesPerSecond(); }

  void Check(Checks* checks) const override {
    checks->Require(result_->completed() && result_->cycles == rounds_,
                    "ring ran " + std::to_string(result_->cycles) + " rotations, want " +
                        std::to_string(rounds_));
  }

 private:
  std::uint64_t seed_;
  int sites_;
  int rounds_;
  std::shared_ptr<mwork::PingPongResult> result_;
};

// ---------------------------------------------------------------------------
// kv_zipf: an open-loop key-value client over mdsm::DistHashMap. Arrivals are
// drawn from the seed and injected as simulator events at their due times,
// so a stalled server cannot slow the generator: the backlog lands in the
// latency, which counts from when each op was due.
class KvZipf final : public Workload {
 public:
  struct Params {
    int sites = 4;
    std::uint32_t keys = 192;
    std::uint32_t value_words = 4;
    double zipf_s = 0.99;
    double get_mix = 0.95;
    double arrivals_per_s = 20.0;  // per site
    std::uint32_t ops_per_site = 0;
    int readers_per_site = 3;      // plus one writer
    msim::Duration service_cpu_us = 200;
    std::uint64_t base_key = 7000;
  };

  KvZipf(std::uint64_t seed, Params prm) : prm_(prm), seed_(seed) {
    layout_.shards = static_cast<std::uint32_t>(prm.sites);
    layout_.slots_per_shard = std::max<std::uint32_t>(16, 2 * prm.keys / layout_.shards);
    layout_.value_words = prm.value_words;
    double total = 0.0;
    for (std::uint32_t rank = 0; rank < prm.keys; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), prm.zipf_s);
    }
    double acc = 0.0;
    for (std::uint32_t rank = 0; rank < prm.keys; ++rank) {
      acc += 1.0 / std::pow(static_cast<double>(rank + 1), prm.zipf_s) / total;
      zipf_cdf_.push_back(acc);
    }
    zipf_cdf_.back() = 1.0;
  }

  int sites() const override { return prm_.sites; }
  msysv::WorldOptions Options(bool /*traced*/) const override { return BaseOptions(0); }

  void Launch(msysv::World& world) override {
    SpawnDaemons(world, seed_);
    // Shard s is homed at site s: the creating site is its library site.
    for (int s = 0; s < prm_.sites; ++s) {
      const std::uint64_t key = ShardKey(s);
      world.shm(s).Shmget(key, layout_.ShardFootprintBytes(), /*create=*/true).value();
      world.registry().Pin(world.registry().FindByKey(key)->id);
    }
    bool loaded = false;
    world.kernel(0).Spawn("kv-load", mos::Priority::kUser,
                          [this, &world, &loaded](mos::Process* p) {
                            return Load(world, p, &loaded);
                          });
    world.RunUntil([&loaded] { return loaded; }, 600 * msim::kSecond);
    if (!loaded) {
      load_failed_ = true;
      return;
    }
    for (int s = 0; s < prm_.sites; ++s) {
      sites_.push_back(
          std::make_unique<Site>(StreamSeed(seed_, kKvStreams + static_cast<std::uint64_t>(s))));
      world.kernel(s).Spawn("kv-writer", mos::Priority::kUser, [this, &world, s](mos::Process* p) {
        return Serve(world, s, p, /*writer=*/true);
      });
      for (int r = 0; r < prm_.readers_per_site; ++r) {
        world.kernel(s).Spawn("kv-reader", mos::Priority::kUser,
                              [this, &world, s](mos::Process* p) {
                                return Serve(world, s, p, /*writer=*/false);
                              });
      }
      ScheduleArrival(world, s, world.sim().Now());
    }
  }

  bool Done() const override { return completed_ + failed_ == attempted(); }
  std::uint64_t attempted() const override {
    return static_cast<std::uint64_t>(prm_.sites) * prm_.ops_per_site;
  }
  std::uint64_t completed() const override { return completed_; }

  double SimTput() const override {
    return last_done_ > first_due_
               ? static_cast<double>(completed_) / msim::ToSeconds(last_done_ - first_due_)
               : 0.0;
  }

  void Check(Checks* checks) const override {
    checks->Require(!load_failed_, "kv table load did not finish");
    checks->Require(completed_ == attempted(), "kv completed " + std::to_string(completed_) +
                                                   " of " + std::to_string(attempted()) + " ops");
    checks->Require(misses_ == 0, std::to_string(misses_) + " kv misses");
    checks->Require(torn_ == 0, std::to_string(torn_) + " torn kv reads");
    checks->Require(corrupt_ == 0, std::to_string(corrupt_) + " kv integrity failures");
    checks->Require(bad_puts_ == 0, std::to_string(bad_puts_) + " kv puts did not update");
    checks->Require(Reportable(op_us_.size(), 99),
                    "only " + std::to_string(op_us_.size()) + " kv op samples");
  }

  void AddMetrics(mexp::Json* m) const override {
    std::uint64_t torn_retries = 0;
    std::uint64_t latch_retries = 0;
    for (const auto& map : maps_) {
      torn_retries += map->torn_retries();
      latch_retries += map->latch_retries();
    }
    const auto get_us = Sorted(get_us_);
    const auto put_us = Sorted(put_us_);
    const auto op_us = Sorted(op_us_);
    const auto wait_us = Sorted(wait_us_);
    m->Set("dsmlib.get_ms_p50", PercentileMs(get_us, 50));
    m->Set("dsmlib.get_ms_p99", PercentileMs(get_us, 99));
    m->Set("dsmlib.put_ms_p50", PercentileMs(put_us, 50));
    m->Set("dsmlib.put_ms_p99", PercentileMs(put_us, 99));
    m->Set("dsmlib.torn_retries_per_get", Ratio(torn_retries, get_us.size()));
    m->Set("dsmlib.latch_retries_per_put", Ratio(latch_retries, put_us.size()));
    m->Set("client.ops", static_cast<double>(op_us.size()));
    m->Set("client.op_p50_ms", PercentileMs(op_us, 50));
    m->Set("client.op_p99_ms", PercentileMs(op_us, 99));
    m->Set("client.queue_wait_ms_p50", PercentileMs(wait_us, 50));
    m->Set("client.queue_wait_ms_p99", PercentileMs(wait_us, 99));
    m->Set("client.backlog_max", static_cast<double>(backlog_max_));
    // A growing backlog shows as a later half slower than the earlier one;
    // ops are split by due time.
    std::vector<std::pair<msim::Time, std::int64_t>> by_due(op_due_.size());
    for (std::size_t i = 0; i < op_due_.size(); ++i) {
      by_due[i] = {op_due_[i], op_us_[i]};
    }
    std::sort(by_due.begin(), by_due.end());
    std::vector<std::int64_t> first;
    std::vector<std::int64_t> second;
    for (std::size_t i = 0; i < by_due.size(); ++i) {
      (i < by_due.size() / 2 ? first : second).push_back(by_due[i].second);
    }
    const double p99_first = PercentileMs(Sorted(first), 99);
    m->Set("client.p99_drift", p99_first > 0 ? PercentileMs(Sorted(second), 99) / p99_first : 0.0);
  }

 private:
  struct Op {
    std::uint32_t key = 0;
    bool is_set = false;
    std::uint32_t nonce = 0;
    msim::Time due = 0;
  };
  struct Site {
    explicit Site(std::uint64_t seed) : rng(seed) {}
    msim::Rng rng;
    std::deque<Op> gets;
    std::deque<Op> sets;
    mos::Channel get_ready;
    mos::Channel set_ready;
    std::uint32_t injected = 0;
  };

  static double Ratio(std::uint64_t a, std::size_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  }

  std::uint64_t ShardKey(int shard) const {
    return mdsm::DistHashMap::ShardKey(prm_.base_key, 0, static_cast<std::uint32_t>(shard));
  }

  // Self-verifying values, as in the kvstore workload: word 0 is a nonce and
  // the rest derive from (key, nonce), so a torn snapshot fails the check.
  std::uint32_t ValueWord(std::uint32_t key, std::uint32_t nonce, std::uint32_t w) const {
    return static_cast<std::uint32_t>(
        mdsm::DistHashMap::Mix((static_cast<std::uint64_t>(key) << 32) | nonce) +
        w * 0x9E3779B9u);
  }
  void FillValue(std::uint32_t key, std::uint32_t nonce, std::uint32_t* out) const {
    out[0] = nonce;
    for (std::uint32_t w = 1; w < prm_.value_words; ++w) {
      out[w] = ValueWord(key, nonce, w);
    }
  }
  bool ValueIntact(std::uint32_t key, const std::uint32_t* v) const {
    for (std::uint32_t w = 1; w < prm_.value_words; ++w) {
      if (v[w] != ValueWord(key, v[0], w)) {
        return false;
      }
    }
    return true;
  }

  mdsm::DistHashMap* Attach(msysv::World& world, int site, mos::Process* p) {
    auto& shm = world.shm(site);
    std::vector<mmem::VAddr> bases;
    for (int s = 0; s < prm_.sites; ++s) {
      const int id = shm.Shmget(ShardKey(s), layout_.ShardFootprintBytes(), false).value();
      bases.push_back(shm.Shmat(p, id).value());
    }
    maps_.push_back(
        std::make_unique<mdsm::DistHashMap>(&shm, &world.kernel(site), layout_, std::move(bases)));
    return maps_.back().get();
  }

  msim::Task<> Load(msysv::World& world, mos::Process* p, bool* loaded) {
    mdsm::DistHashMap* map = Attach(world, 0, p);
    std::vector<std::uint32_t> value(prm_.value_words);
    for (std::uint32_t key = 1; key <= prm_.keys; ++key) {
      FillValue(key, /*nonce=*/0, value.data());
      co_await map->Put(p, key, value.data());
    }
    *loaded = true;
  }

  // Injects site `s`'s next arrival at its due time `after` + an exponential
  // gap, then chains the one after it.
  void ScheduleArrival(msysv::World& world, int s, msim::Time after) {
    Site& site = *sites_[static_cast<std::size_t>(s)];
    const double u = site.rng.NextDouble();
    const auto gap = static_cast<msim::Duration>(-std::log(1.0 - u) / prm_.arrivals_per_s * 1e6);
    const msim::Time due = after + std::max<msim::Duration>(1, gap);
    world.sim().ScheduleAt(due, [this, &world, s, due] {
      Site& st = *sites_[static_cast<std::size_t>(s)];
      Op op;
      const double k = st.rng.NextDouble();
      const auto rank = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), k) - zipf_cdf_.begin();
      op.key = static_cast<std::uint32_t>(std::min<std::ptrdiff_t>(rank, prm_.keys - 1)) + 1;
      op.is_set = !st.rng.Chance(prm_.get_mix);
      op.nonce = op.is_set ? static_cast<std::uint32_t>(st.rng.Next() | 1u) : 0;
      op.due = due;
      first_due_ = first_due_ == 0 ? due : std::min(first_due_, due);
      auto& queue = op.is_set ? st.sets : st.gets;
      queue.push_back(op);
      backlog_max_ = std::max<std::uint64_t>(backlog_max_, st.gets.size() + st.sets.size());
      auto& kernel = world.kernel(s);
      kernel.WakeupOne(op.is_set ? st.set_ready : st.get_ready);
      if (++st.injected < prm_.ops_per_site) {
        ScheduleArrival(world, s, due);
      } else {
        // Let idle servers see that arrivals have ended.
        kernel.Wakeup(st.get_ready);
        kernel.Wakeup(st.set_ready);
      }
    });
  }

  msim::Task<> Serve(msysv::World& world, int s, mos::Process* p, bool writer) {
    auto& kernel = world.kernel(s);
    Site& st = *sites_[static_cast<std::size_t>(s)];
    mdsm::DistHashMap* map = Attach(world, s, p);
    std::deque<Op>& queue = writer ? st.sets : st.gets;
    mos::Channel& ready = writer ? st.set_ready : st.get_ready;
    std::vector<std::uint32_t> value(prm_.value_words);
    for (;;) {
      if (queue.empty()) {
        if (st.injected == prm_.ops_per_site) {
          break;
        }
        co_await kernel.SleepOn(p, ready);
        continue;
      }
      const Op op = queue.front();
      queue.pop_front();
      wait_us_.push_back(kernel.Now() - op.due);
      co_await kernel.Compute(p, prm_.service_cpu_us);
      const msim::Time call = kernel.Now();
      bool ok = true;
      if (writer) {
        FillValue(op.key, op.nonce, value.data());
        const mdsm::PutStatus ps = co_await map->Put(p, op.key, value.data());
        put_us_.push_back(kernel.Now() - call);
        if (ps != mdsm::PutStatus::kUpdated) {
          ++bad_puts_;
          ok = false;
        }
      } else {
        const mdsm::GetStatus gs = co_await map->Get(p, op.key, value.data());
        get_us_.push_back(kernel.Now() - call);
        if (gs == mdsm::GetStatus::kMiss) {
          ++misses_;
          ok = false;
        } else if (gs == mdsm::GetStatus::kTorn) {
          ++torn_;
          ok = false;
        } else if (!ValueIntact(op.key, value.data())) {
          ++corrupt_;
          ok = false;
        }
      }
      if (ok) {
        ++completed_;
        op_us_.push_back(kernel.Now() - op.due);
        op_due_.push_back(op.due);
        last_done_ = std::max(last_done_, kernel.Now());
      } else {
        ++failed_;
      }
    }
  }

  Params prm_;
  std::uint64_t seed_;
  mdsm::HashMapLayout layout_;
  std::vector<double> zipf_cdf_;
  std::vector<std::unique_ptr<Site>> sites_;
  std::vector<std::unique_ptr<mdsm::DistHashMap>> maps_;
  bool load_failed_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t torn_ = 0;
  std::uint64_t corrupt_ = 0;
  std::uint64_t bad_puts_ = 0;
  std::uint64_t backlog_max_ = 0;
  msim::Time first_due_ = 0;
  msim::Time last_done_ = 0;
  std::vector<std::int64_t> op_us_;
  std::vector<msim::Time> op_due_;
  std::vector<std::int64_t> wait_us_;
  std::vector<std::int64_t> get_us_;
  std::vector<std::int64_t> put_us_;
};

}  // namespace

void Workload::AddMetrics(mexp::Json* metrics) const {
  for (const char* name :
       {"dsmlib.get_ms_p50", "dsmlib.get_ms_p99", "dsmlib.put_ms_p50", "dsmlib.put_ms_p99",
        "dsmlib.torn_retries_per_get", "dsmlib.latch_retries_per_put", "client.ops",
        "client.op_p50_ms", "client.op_p99_ms", "client.queue_wait_ms_p50",
        "client.queue_wait_ms_p99", "client.backlog_max", "client.p99_drift"}) {
    metrics->Set(name, 0.0);
  }
}

// Sizes: each untraced run takes about one second of host time on a 4-core
// x86 host, so a measured run holds several repetitions.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "fig8_rw") {
    // Δ = 120 ms, where Figure 8's plateau starts.
    return std::make_unique<ReadWriters>(seed, 1, 120 * kMs, 5000000, 1);
  }
  if (name == "multiseg_w2") {
    // Two workers leave cores free: a window waits for its slowest thread, so
    // with a thread on every core of a shared host the run times other tenants.
    return std::make_unique<ReadWriters>(seed, 16, 16667, 150000, 2);
  }
  if (name == "ring4_k2") {
    return std::make_unique<Ring>(seed, 4, 12000);
  }
  if (name == "kv_zipf") {
    KvZipf::Params prm;
    prm.ops_per_site = 120000;
    return std::make_unique<KvZipf>(seed, prm);
  }
  return nullptr;
}

}  // namespace e2e
