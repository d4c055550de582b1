// Locus-style virtual circuits: reliable, exactly-once, in-order delivery
// over a lossy datagram medium.
//
// The paper's substrate: "the Locus system at the lowest of levels,
// maintains a form of virtual circuit between sites to sequence network
// messages and maintain topology" (§7.1). The DSM protocol above assumes
// per-pair FIFO, exactly-once delivery; this layer provides it even when
// the simulated Ethernet drops frames:
//
//  * every data frame on a (src,dst) circuit carries a sequence number;
//  * the receiver delivers strictly in sequence, buffers out-of-order
//    arrivals, suppresses duplicates, and returns cumulative acks;
//  * the sender holds unacked frames and retransmits on timeout (acks
//    themselves may be lost; retransmission and deduplication cover it).
//
// Loss injection is deterministic (seeded), so every failure test is
// exactly reproducible. Network runs without this layer unless one is
// configured; a configured layer always sequences.
//
// Failure model: the layer never gives a peer up; down-ness is Liveness's.
// A frame or ack that meets a crashed site or a cut link vanishes (counted
// in down_drops) and the sender keeps retransmitting, so a healed partition
// recovers everything sent into it. A recovering site's circuits are reset
// by ResetSite.
#ifndef SRC_NET_CIRCUIT_H_
#define SRC_NET_CIRCUIT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/net/liveness.h"
#include "src/net/packet.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace mnet {

struct CircuitOptions {
  // Probability that any single frame, data or ack, is dropped in flight.
  double loss_probability = 0.0;
  std::uint64_t loss_seed = 0x10C05;
};

struct CircuitStats {
  std::uint64_t data_frames_sent = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t out_of_order_buffered = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_dropped = 0;
  // Frames and acks swallowed because the destination site or the link is
  // down (fault injection), and unacked frames discarded by ResetSite.
  std::uint64_t down_drops = 0;
};

// The transport under Network. Network::Deliver hands frames here; the
// circuit layer calls back into Network's sink dispatch for each frame it
// releases, exactly once and in order.
class CircuitLayer {
 public:
  using Release = std::function<void(Packet)>;

  // `live` is the world's fault state (Network passes its own); a frame or
  // ack arrives only where it is Reachable. Null = every site reachable.
  CircuitLayer(msim::Simulator* sim, CircuitOptions opts, Release release,
               const Liveness* live = nullptr)
      : sim_(sim), opts_(opts), rng_(opts.loss_seed), release_(std::move(release)), live_(live) {}
  CircuitLayer(const CircuitLayer&) = delete;
  CircuitLayer& operator=(const CircuitLayer&) = delete;

  // Entry point from Network::Deliver. May drop, sequence, and retransmit;
  // eventually releases the packet (exactly once, in order) at the
  // destination.
  void Transmit(Packet pkt);

  // Site-recovery hook: resets every circuit touching `site` (both
  // directions) to a clean state. Sequence counters are deliberately
  // PRESERVED — the receiver is fast-forwarded past the old window instead,
  // so frames still in flight from before the crash arrive as duplicates
  // and are re-acked away rather than masquerading as (or blocking)
  // post-revive traffic. Unacked windows, retransmit timers and
  // out-of-order buffers are dropped.
  void ResetSite(SiteId site);

  const CircuitStats& stats() const { return stats_; }

 private:
  // Wire propagation per frame (the calibrated tx/rx elapsed costs live in
  // the kernels; this is pure medium latency).
  static constexpr msim::Duration kPropagationUs = 100;
  // Retransmit an unacked frame after this long.
  static constexpr msim::Duration kRetransmitTimeoutUs = 60 * msim::kMillisecond;

  struct Key {
    SiteId src;
    SiteId dst;
  };

  // Dense per-(src,dst) state table. Sites are small dense integers, so a
  // two-level vector indexed [src][dst] replaces the old std::map<Key, T>:
  // every frame, ack, and timer event resolves its circuit with two array
  // indexings instead of a tree walk. Entries are created on first use and
  // live behind unique_ptr so their addresses are stable as the table grows.
  template <typename T>
  class PairTable {
   public:
    T& At(SiteId src, SiteId dst) {
      auto s = static_cast<std::size_t>(src);
      auto d = static_cast<std::size_t>(dst);
      if (s >= rows_.size()) {
        rows_.resize(s + 1);
      }
      auto& row = rows_[s];
      if (d >= row.size()) {
        row.resize(d + 1);
      }
      if (!row[d]) {
        row[d] = std::make_unique<T>();
      }
      return *row[d];
    }

    T* Find(SiteId src, SiteId dst) {
      auto s = static_cast<std::size_t>(src);
      auto d = static_cast<std::size_t>(dst);
      if (s >= rows_.size() || d >= rows_[s].size()) {
        return nullptr;
      }
      return rows_[s][d].get();
    }

    // Visits every existing entry in (src, dst) index order.
    template <typename F>
    void ForEach(F&& f) {
      for (std::size_t s = 0; s < rows_.size(); ++s) {
        for (std::size_t d = 0; d < rows_[s].size(); ++d) {
          if (rows_[s][d]) {
            f(static_cast<SiteId>(s), static_cast<SiteId>(d), *rows_[s][d]);
          }
        }
      }
    }

   private:
    std::vector<std::vector<std::unique_ptr<T>>> rows_;
  };
  struct SendCircuit {
    std::uint64_t next_seq = 1;
    // seq -> frame; ordered so the front is the oldest.
    std::map<std::uint64_t, Packet> unacked;
    msim::EventId timer = 0;
  };
  struct RecvCircuit {
    std::uint64_t next_expected = 1;
    std::map<std::uint64_t, Packet> out_of_order;
  };

  void SendFrame(const Key& key, std::uint64_t seq, const Packet& pkt, bool is_retransmit);
  void OnFrameArrival(const Key& key, std::uint64_t seq, Packet pkt);
  void SendAck(const Key& data_key, std::uint64_t cumulative);
  void OnAck(const Key& data_key, std::uint64_t cumulative);
  void ArmTimer(const Key& key);
  void OnTimer(const Key& key);
  bool Lost() { return rng_.Chance(opts_.loss_probability); }
  bool Reachable(SiteId from, SiteId to) const {
    return live_ == nullptr || live_->Reachable(from, to);
  }

  msim::Simulator* sim_;
  CircuitOptions opts_;
  msim::Rng rng_;
  Release release_;
  const Liveness* live_;
  PairTable<SendCircuit> send_;
  PairTable<RecvCircuit> recv_;
  CircuitStats stats_;
};

}  // namespace mnet

#endif  // SRC_NET_CIRCUIT_H_
