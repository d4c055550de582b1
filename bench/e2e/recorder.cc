#include "bench/e2e/recorder.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

namespace e2e {

namespace {

// Times every Fault() of the Engine it owns, in simulated time at the using
// site; everything else is forwarded untouched.
class TimedBackend final : public mmem::DsmBackend {
 public:
  TimedBackend(std::unique_ptr<mirage::Engine> inner, std::vector<FaultSpan>* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  void Start() override { inner_->Start(); }
  mmem::SegmentImage* EnsureImage(const mmem::SegmentMeta& meta) override {
    return inner_->EnsureImage(meta);
  }
  void DropSegment(mmem::SegmentId seg) override { inner_->DropSegment(seg); }

  msim::Task<mmem::FaultStatus> Fault(mos::Process* p, mmem::SegmentId seg, mmem::PageNum page,
                                      bool write) override {
    const msim::Time start = inner_->kernel()->Now();
    const mmem::FaultStatus status = co_await inner_->Fault(p, seg, page, write);
    spans_->push_back(
        {inner_->site(), p->pid, seg, page, write, start, inner_->kernel()->Now(), status});
    co_return status;
  }

 private:
  std::unique_ptr<mirage::Engine> inner_;
  std::vector<FaultSpan>* spans_;
};

template <typename Body>
void DecodePage(const mnet::Packet& pkt, MsgInstant* m) {
  const Body& b = mnet::PacketBody<Body>(pkt);
  m->seg = b.seg;
  m->page = b.page;
}

template <typename Body>
void DecodeSegment(const mnet::Packet& pkt, MsgInstant* m) {
  m->seg = mnet::PacketBody<Body>(pkt).seg;
}

MsgInstant Decode(const mnet::Packet& pkt, msim::Time t) {
  using mirage::MsgKind;
  MsgInstant m;
  m.kind = static_cast<MsgKind>(pkt.type);
  m.src = pkt.src;
  m.dst = pkt.dst;
  m.t = t;
  switch (m.kind) {
    case MsgKind::kPageRequest: {
      const auto& b = mnet::PacketBody<mirage::PageRequestBody>(pkt);
      m.seg = b.seg;
      m.page = b.page;
      m.pid = b.pid;
      break;
    }
    case MsgKind::kClockOp:
      DecodePage<mirage::ClockOpBody>(pkt, &m);
      break;
    case MsgKind::kWaitReply:
      DecodePage<mirage::WaitReplyBody>(pkt, &m);
      break;
    case MsgKind::kInvalidatePage:
      DecodePage<mirage::InvalidatePageBody>(pkt, &m);
      break;
    case MsgKind::kInvalidateAck:
      DecodePage<mirage::InvalidateAckBody>(pkt, &m);
      break;
    case MsgKind::kPageInstall:
      DecodePage<mirage::PageInstallBody>(pkt, &m);
      break;
    case MsgKind::kUpgradeGrant:
      DecodePage<mirage::UpgradeGrantBody>(pkt, &m);
      break;
    case MsgKind::kInstallAck:
      DecodePage<mirage::InstallAckBody>(pkt, &m);
      break;
    case MsgKind::kRequestFailed:
      DecodePage<mirage::RequestFailedBody>(pkt, &m);
      break;
    case MsgKind::kRecoveryQuery:
      DecodeSegment<mirage::RecoveryQueryBody>(pkt, &m);
      break;
    case MsgKind::kRecoveryReply:
      DecodeSegment<mirage::RecoveryReplyBody>(pkt, &m);
      break;
    case MsgKind::kReplicate:
      DecodePage<mirage::ReplicateBody>(pkt, &m);
      break;
    case MsgKind::kReplicateAck:
      DecodePage<mirage::ReplicateAckBody>(pkt, &m);
      break;
    case MsgKind::kPromoteReplica:
      DecodePage<mirage::PromoteReplicaBody>(pkt, &m);
      break;
    case MsgKind::kRejoinAnnounce:
      DecodeSegment<mirage::RejoinAnnounceBody>(pkt, &m);
      break;
    case MsgKind::kRejoinWelcome:
      DecodeSegment<mirage::RejoinWelcomeBody>(pkt, &m);
      break;
  }
  return m;
}

}  // namespace

void Recorder::InstallBackends(msysv::WorldOptions* opts) {
  const mirage::ProtocolOptions protocol = opts->protocol;
  opts->backend_factory = [this, protocol](mos::Kernel* kernel, mirage::SegmentRegistry* registry,
                                           mtrace::Tracer* tracer) {
    auto engine = std::make_unique<mirage::Engine>(kernel, registry, protocol, tracer);
    engines_.push_back(engine.get());
    return std::make_unique<TimedBackend>(std::move(engine), &spans_);
  };
}

void Recorder::Observe(mnet::Network* net) {
  net->AddObserver([this](const mnet::Packet& pkt, msim::Time t) {
    msgs_.push_back(Decode(pkt, t));
  });
}

FaultDecomposition Recorder::Decompose() const {
  // Deliveries arrive in time order, so each list below is sorted.
  using RequestKey = std::tuple<mnet::SiteId, int, mmem::SegmentId, mmem::PageNum>;
  using GrantKey = std::tuple<mnet::SiteId, mmem::SegmentId, mmem::PageNum>;
  std::map<RequestKey, std::vector<msim::Time>> requests;
  std::map<GrantKey, std::vector<msim::Time>> grants;
  for (const MsgInstant& m : msgs_) {
    if (m.kind == mirage::MsgKind::kPageRequest) {
      requests[{m.src, m.pid, m.seg, m.page}].push_back(m.t);
    } else if (m.kind == mirage::MsgKind::kPageInstall ||
               m.kind == mirage::MsgKind::kUpgradeGrant) {
      grants[{m.dst, m.seg, m.page}].push_back(m.t);
    }
  }
  FaultDecomposition d;
  for (const FaultSpan& s : spans_) {
    const auto req = requests.find({s.site, s.pid, s.seg, s.page});
    if (req == requests.end()) {
      ++d.local;
      continue;
    }
    const auto r = std::lower_bound(req->second.begin(), req->second.end(), s.start);
    if (r == req->second.end() || *r > s.end) {
      ++d.local;
      continue;
    }
    const auto gr = grants.find({s.site, s.seg, s.page});
    if (gr == grants.end()) {
      ++d.unmatched;
      continue;
    }
    const auto g = std::upper_bound(gr->second.begin(), gr->second.end(), s.end);
    if (g == gr->second.begin() || *std::prev(g) < *r) {
      ++d.unmatched;
      continue;
    }
    const msim::Time grant = *std::prev(g);
    const std::int64_t out = *r - s.start;
    const std::int64_t service = grant - *r;
    const std::int64_t in = s.end - grant;
    if (out < 0 || service < 0 || in < 0 || out + service + in != s.end - s.start) {
      ++d.identity_violations;
    }
    d.out_us.push_back(out);
    d.service_us.push_back(service);
    d.in_us.push_back(in);
  }
  return d;
}

bool Recorder::WriteChromeTrace(const std::string& path, std::size_t cap) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  std::vector<const FaultSpan*> spans;
  spans.reserve(spans_.size());
  for (const FaultSpan& s : spans_) {
    spans.push_back(&s);
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const FaultSpan* a, const FaultSpan* b) { return a->start < b->start; });
  const std::size_t total = spans.size() + msgs_.size();
  std::size_t si = 0;
  std::size_t mi = 0;
  std::size_t written = 0;
  out << "{\"traceEvents\":[";
  while (written < cap && (si < spans.size() || mi < msgs_.size())) {
    out << (written == 0 ? "\n" : ",\n");
    if (mi == msgs_.size() || (si < spans.size() && spans[si]->start <= msgs_[mi].t)) {
      const FaultSpan& s = *spans[si++];
      out << "{\"name\":\"" << (s.write ? "write fault" : "read fault")
          << "\",\"ph\":\"X\",\"pid\":" << s.site << ",\"tid\":" << s.pid << ",\"ts\":" << s.start
          << ",\"dur\":" << s.end - s.start << ",\"args\":{\"seg\":" << s.seg
          << ",\"page\":" << s.page << ",\"status\":\"" << mmem::FaultStatusName(s.status)
          << "\"}}";
    } else {
      const MsgInstant& m = msgs_[mi++];
      out << "{\"name\":\"" << mirage::MsgKindName(m.kind)
          << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":" << m.dst << ",\"tid\":0,\"ts\":" << m.t
          << ",\"args\":{\"src\":" << m.src << ",\"seg\":" << m.seg << ",\"page\":" << m.page
          << "}}";
    }
    ++written;
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"simulated us\",\"cap\":" << cap
      << ",\"events\":" << total << ",\"dropped\":" << total - written << "}}\n";
  return static_cast<bool>(out);
}

}  // namespace e2e
