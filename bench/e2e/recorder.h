// The traced pass's instruments, all attached from outside the layers they
// time: a DsmBackend decorator that times every Fault() call, and a network
// delivery observer that stamps every protocol message. Both keep their
// records in memory until the run ends.
#ifndef BENCH_E2E_RECORDER_H_
#define BENCH_E2E_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/mem/backend.h"
#include "src/mirage/engine.h"
#include "src/mirage/protocol.h"
#include "src/net/network.h"
#include "src/sysv/world.h"

namespace e2e {

// One Fault() call at a using site, in simulated µs.
struct FaultSpan {
  mnet::SiteId site = mnet::kNoSite;
  int pid = -1;
  mmem::SegmentId seg = -1;
  mmem::PageNum page = 0;
  bool write = false;
  msim::Time start = 0;
  msim::Time end = 0;
  mmem::FaultStatus status = mmem::FaultStatus::kOk;
};

// One delivered protocol message. `seg`/`page` are -1 for kinds whose body
// names no page; `pid` is set only for page requests.
struct MsgInstant {
  mirage::MsgKind kind = mirage::MsgKind::kPageRequest;
  mnet::SiteId src = mnet::kNoSite;
  mnet::SiteId dst = mnet::kNoSite;
  mmem::SegmentId seg = -1;
  mmem::PageNum page = -1;
  int pid = -1;
  msim::Time t = 0;
};

// Fault latency split at the two message boundaries a remote fault crosses:
//   out     = span start .. the fault's own kPageRequest is delivered
//   service = that request .. the last kPageInstall/kUpgradeGrant delivered
//             to the faulting site for the page inside the span
//   in      = that grant .. span end
// The three vectors are parallel, one entry per matched fault.
struct FaultDecomposition {
  std::vector<std::int64_t> out_us;
  std::vector<std::int64_t> service_us;
  std::vector<std::int64_t> in_us;
  // Faults that sent no request of their own: the library was local, or the
  // fault joined another process's pending request.
  std::size_t local = 0;
  // Faults that sent a request but saw no grant message inside the span
  // (for example a clock site upgrading its own copy).
  std::size_t unmatched = 0;
  // Matched faults whose parts are negative or do not sum to the latency.
  std::size_t identity_violations = 0;
};

class Recorder {
 public:
  Recorder() = default;
  // The backend factory and the observer capture `this`.
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Makes the World wrap each site's mirage::Engine (built with
  // `opts->protocol`) in the timing decorator.
  void InstallBackends(msysv::WorldOptions* opts);
  // Stamps every delivered packet. Call once, right after the World is built.
  void Observe(mnet::Network* net);

  // The wrapped engines, by site (World::engine() is null under a decorator).
  const std::vector<mirage::Engine*>& engines() const { return engines_; }
  const std::vector<FaultSpan>& spans() const { return spans_; }

  FaultDecomposition Decompose() const;

  // Writes Chrome trace-event JSON: fault spans as "X" events (pid = site,
  // tid = process) and deliveries as instants, both in simulated µs, in time
  // order, at most `cap` events. Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path, std::size_t cap) const;

 private:
  std::vector<mirage::Engine*> engines_;
  std::vector<FaultSpan> spans_;
  std::vector<MsgInstant> msgs_;
};

}  // namespace e2e

#endif  // BENCH_E2E_RECORDER_H_
