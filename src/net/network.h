// Point-to-point, in-order message network (Locus-style virtual circuits).
//
// The paper's Locus substrate maintains virtual circuits between sites that
// sequence messages; broadcast/multicast is absent (§7.1, second caveat).
// Delivery here preserves per-(src,dst) FIFO order: the sender serializes its
// own transmissions (single CPU) and Deliver() enqueues in call order.
//
// Transmit elapsed time is charged by the sender (os::Kernel::Send computes
// for TxCost before calling Deliver); receive elapsed time is charged by the
// receiving site's interrupt service. The network itself adds no extra
// latency: the paper's measured 12.9 ms short round trip is fully explained
// by the four tx/rx elapsed components.
//
// Fault state is one mnet::Liveness (src/net/liveness.h) that the network
// owns and reads at delivery: a crashed site sends and receives nothing, a
// cut link drops traffic in both directions, and inbound delivery to a
// paused site is held, in order, until FlushHeld at resume. The circuit
// layer and the DSM protocol read the same table; src/fault writes it.
// Every dropped or held packet is counted — nothing vanishes silently.
//
// Hot-path layout (DESIGN.md §10): sites are dense small integers, so the
// per-site tables (sinks, held queues) are vectors indexed by SiteId rather
// than trees, and the per-type packet counters accumulate in a flat array
// that is folded into the stats map only when stats() is read.
#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/net/circuit.h"
#include "src/net/cost_model.h"
#include "src/net/liveness.h"
#include "src/net/packet.h"
#include "src/sim/inline_fn.h"
#include "src/sim/simulator.h"

namespace mnet {

struct NetworkStats {
  std::uint64_t packets = 0;
  std::uint64_t short_packets = 0;
  std::uint64_t large_packets = 0;
  std::uint64_t payload_bytes = 0;
  // Packets that reached their destination but could not be handed to a
  // sink: site torn down mid-flight, crashed, or partitioned away.
  std::uint64_t dropped_no_sink = 0;
  std::uint64_t dropped_site_down = 0;
  std::uint64_t dropped_partitioned = 0;
  // Packets held for a paused site (delivered later by FlushHeld), and the
  // deepest any one site's held queue ever grew (pause-window sizing).
  std::uint64_t packets_held = 0;
  std::uint64_t held_peak_depth = 0;
  std::map<std::uint32_t, std::uint64_t> packets_by_type;
};

class Network {
 public:
  // A sink accepts a delivered packet at the destination site (the NIC).
  // Sinks and observers are on the per-packet hot path, so they use the
  // same small-buffer move-only callable as the event queue (no per-install
  // heap allocation, one indirect call to invoke).
  using Sink = msim::InlineFunction<void(const Packet&), 64>;
  // Observers see every packet at delivery time (used by trace capture).
  using Observer = msim::InlineFunction<void(const Packet&, msim::Time), 64>;
  // Notified when a packet is dropped; `reason` is a static string.
  using DropHook = std::function<void(const Packet&, const char* reason)>;

  Network(msim::Simulator* sim, const CostModel* costs) : sim_(sim), costs_(costs) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Registers the receive sink for a site. Must be called once per site
  // before any traffic flows to it.
  void RegisterSite(SiteId site, Sink sink);

  // Hands a packet to the destination site's sink — synchronously on a
  // lossless medium, through the virtual-circuit layer when one is
  // configured. The caller must already have charged the transmit cost.
  // Delivering to an unregistered site is a programming error and throws.
  void Deliver(Packet pkt);

  // Configures the Locus virtual-circuit transport (sequencing, acks,
  // retransmission) over a lossy medium. Call before any traffic flows.
  void SetCircuitOptions(CircuitOptions opts);
  // Circuit transport statistics; nullptr when no circuit layer is active.
  const CircuitStats* circuit_stats() const {
    return circuits_ ? &circuits_->stats() : nullptr;
  }
  CircuitLayer* circuits() { return circuits_.get(); }

  // Reports every dropped packet (tracing); `reason` is a static string.
  void SetDropHook(DropHook h) { drop_hook_ = std::move(h); }

  // Delivers the packets held while `site` was paused, preserving order.
  void FlushHeld(SiteId site);

  // Drops every packet held for `site` (the site crashed while paused: its
  // inbound queue dies with it). Returns the number of packets dropped; each
  // is counted in dropped_site_down and reported to the drop hook.
  std::uint64_t DropHeld(SiteId site);

  // Site-recovery hook: resets every virtual circuit touching `site` (see
  // CircuitLayer::ResetSite). No-op when no circuit layer is configured.
  void ResetCircuits(SiteId site) {
    if (circuits_) {
      circuits_->ResetSite(site);
    }
  }

  // The world's fault state, read per packet here and written by src/fault.
  const Liveness& liveness() const { return live_; }
  Liveness& liveness() { return live_; }

  // Adds a delivery observer (e.g. a message-sequence tracer).
  void AddObserver(Observer obs) { observers_.push_back(std::move(obs)); }

  // Adds a send-side observer, fired inside Deliver() before the packet
  // leaves the sender (mcheck's happens-before recorder snapshots the
  // sender's vector clock here; with deferred delivery the arrival-side
  // observer may fire much later and out of cross-pair order).
  void AddSendObserver(Observer obs) { send_observers_.push_back(std::move(obs)); }

  // ---- Deferred delivery (mcheck schedule exploration, DESIGN.md §11) ----
  // Normally a lossless Deliver() hands the packet to the destination sink
  // synchronously, which welds the send and the receive into one simulator
  // event and leaves a schedule controller nothing to reorder. In deferred
  // mode each delivery becomes its own zero-delay event tagged with the
  // (src,dst) pair domain: per-circuit FIFO is preserved (same domain ⇒
  // schedule order), while deliveries on different circuits become genuine
  // reorder candidates. Only meaningful without a circuit layer (the circuit
  // layer already decouples via its own timers).
  void SetDeferredDelivery(bool on) { deferred_ = on; }
  bool deferred_delivery() const { return deferred_; }

  // Event domain for one direction of a virtual circuit. Distinct from every
  // kernel site domain (those are the small site ids) by the offset, which
  // also lets a controller recognize delivery events by domain range.
  static constexpr msim::EventDomain kPairDomainBase = 0x10000;
  static msim::EventDomain PairDomain(SiteId src, SiteId dst) {
    return kPairDomainBase + (static_cast<msim::EventDomain>(src) << 8) + dst;
  }

  const CostModel& costs() const { return *costs_; }
  msim::Simulator* sim() const { return sim_; }
  // Folds the flat per-type counters into the stats map before returning.
  const NetworkStats& stats() const;
  void ResetStats();

  std::size_t SiteCount() const { return registered_sites_; }

 private:
  void Release(Packet pkt);
  void Drop(const Packet& pkt, const char* reason);
  bool Registered(SiteId s) const {
    return s >= 0 && static_cast<std::size_t>(s) < sinks_.size() &&
           static_cast<bool>(sinks_[s]);
  }

  msim::Simulator* sim_;
  const CostModel* costs_;
  // Indexed by SiteId (sites are dense small integers); an empty Sink marks
  // an unregistered slot.
  std::vector<Sink> sinks_;
  std::size_t registered_sites_ = 0;
  std::vector<Observer> observers_;
  std::vector<Observer> send_observers_;
  bool deferred_ = false;
  Liveness live_;
  // stats_ is the caller-visible snapshot; the per-type counts accumulate
  // in by_type_counts_ (flat, indexed by packet type) and are folded into
  // stats_.packets_by_type lazily by stats().
  mutable NetworkStats stats_;
  std::vector<std::uint64_t> by_type_counts_;
  std::unique_ptr<CircuitLayer> circuits_;
  DropHook drop_hook_;
  // held_[site] is the pause queue, in arrival order. Packets are moved in
  // on hold and the whole vector is moved out on flush/drop — never copied;
  // capacity is reserved when a pause starts filling the queue.
  std::vector<std::vector<Packet>> held_;
};

}  // namespace mnet

#endif  // SRC_NET_NETWORK_H_
