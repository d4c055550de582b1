#include "src/net/network.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace mnet {

void Network::RegisterSite(SiteId site, Sink sink) {
  if (Registered(site)) {
    throw std::logic_error("net: site " + std::to_string(site) + " registered twice");
  }
  if (site < 0) {
    throw std::logic_error("net: negative site id");
  }
  if (static_cast<std::size_t>(site) >= sinks_.size()) {
    sinks_.resize(site + 1);
    held_.resize(site + 1);
  }
  sinks_[site] = std::move(sink);
  ++registered_sites_;
}

void Network::SetCircuitOptions(CircuitOptions opts) {
  circuits_ = std::make_unique<CircuitLayer>(
      sim_, opts, [this](Packet pkt) { Release(std::move(pkt)); }, &live_);
}

void Network::Deliver(Packet pkt) {
  if (!Registered(pkt.dst)) {
    throw std::logic_error("net: delivery to unregistered site " + std::to_string(pkt.dst));
  }
  if (!live_.SiteUp(pkt.src)) {
    // A crashed site transmits nothing; anything already queued from it at
    // the moment of the crash vanishes with the site.
    ++stats_.dropped_site_down;
    Drop(pkt, "src-site-down");
    return;
  }
  for (const Observer& obs : send_observers_) {
    obs(pkt, sim_->Now());
  }
  if (circuits_) {
    circuits_->Transmit(std::move(pkt));
  } else if (deferred_) {
    // Each delivery is its own event in the (src,dst) pair domain: FIFO per
    // circuit direction, reorderable across circuits by a controller.
    sim_->Schedule(0, PairDomain(pkt.src, pkt.dst),
                   [this, p = std::move(pkt)]() mutable { Release(std::move(p)); });
  } else {
    Release(std::move(pkt));
  }
}

// Exactly-once, in-order hand-off to the destination sink. Statistics and
// observers count released packets, so protocol message accounting is
// unaffected by drops and retransmissions underneath. Fault state is
// evaluated here — arrival time — not at transmit time: a packet in flight
// when its destination crashes is lost, one in flight when the destination
// pauses waits.
void Network::Release(Packet pkt) {
  if (!Registered(pkt.dst)) {
    // Site vanished mid-flight (teardown). Historically swallowed silently;
    // now counted so lost traffic is always visible in reports.
    ++stats_.dropped_no_sink;
    Drop(pkt, "no-sink");
    return;
  }
  if (!live_.SiteUp(pkt.dst)) {
    ++stats_.dropped_site_down;
    Drop(pkt, "dst-site-down");
    return;
  }
  if (!live_.LinkUp(pkt.src, pkt.dst)) {
    ++stats_.dropped_partitioned;
    Drop(pkt, "partitioned");
    return;
  }
  if (live_.Paused(pkt.dst)) {
    ++stats_.packets_held;
    std::vector<Packet>& q = held_[pkt.dst];
    if (q.capacity() == 0) {
      q.reserve(16);
    }
    q.push_back(std::move(pkt));
    if (q.size() > stats_.held_peak_depth) {
      stats_.held_peak_depth = q.size();
    }
    return;
  }
  ++stats_.packets;
  if (pkt.size_bytes >= costs_->large_threshold_bytes) {
    ++stats_.large_packets;
  } else {
    ++stats_.short_packets;
  }
  stats_.payload_bytes += pkt.size_bytes;
  if (pkt.type >= by_type_counts_.size()) {
    by_type_counts_.resize(pkt.type + 1, 0);
  }
  ++by_type_counts_[pkt.type];
  for (const Observer& obs : observers_) {
    obs(pkt, sim_->Now());
  }
  sinks_[pkt.dst](pkt);
}

const NetworkStats& Network::stats() const {
  // Fold the flat counters into the map view. Only types actually seen get
  // an entry, matching the old map-per-increment behaviour exactly.
  for (std::uint32_t t = 0; t < by_type_counts_.size(); ++t) {
    if (by_type_counts_[t] != 0) {
      stats_.packets_by_type[t] = by_type_counts_[t];
    }
  }
  return stats_;
}

void Network::ResetStats() {
  stats_ = NetworkStats{};
  by_type_counts_.clear();
}

void Network::FlushHeld(SiteId site) {
  if (site < 0 || static_cast<std::size_t>(site) >= held_.size() || held_[site].empty()) {
    return;
  }
  std::vector<Packet> pending = std::move(held_[site]);
  held_[site].clear();  // moved-from: make the empty state explicit
  // Redeliver in arrival order. Each packet re-runs the full Release checks:
  // the site may have crashed (or been re-paused) between resume events.
  for (Packet& pkt : pending) {
    Release(std::move(pkt));
  }
}

std::uint64_t Network::DropHeld(SiteId site) {
  if (site < 0 || static_cast<std::size_t>(site) >= held_.size() || held_[site].empty()) {
    return 0;
  }
  std::vector<Packet> pending = std::move(held_[site]);
  held_[site].clear();
  for (const Packet& pkt : pending) {
    ++stats_.dropped_site_down;
    Drop(pkt, "crashed-while-held");
  }
  return pending.size();
}

void Network::Drop(const Packet& pkt, const char* reason) {
  if (drop_hook_) {
    drop_hook_(pkt, reason);
  }
}

}  // namespace mnet
