#include "src/net/circuit.h"

namespace mnet {

void CircuitLayer::Transmit(Packet pkt) {
  Key key{pkt.src, pkt.dst};
  SendCircuit& sc = send_.At(key.src, key.dst);
  std::uint64_t seq = sc.next_seq++;
  sc.unacked.emplace(seq, pkt);
  ++stats_.data_frames_sent;
  SendFrame(key, seq, pkt, /*is_retransmit=*/false);
  ArmTimer(key);
}

void CircuitLayer::SendFrame(const Key& key, std::uint64_t seq, const Packet& pkt,
                             bool is_retransmit) {
  if (is_retransmit) {
    ++stats_.retransmits;
  }
  if (Lost()) {
    ++stats_.frames_dropped;
    return;  // the retransmit timer recovers
  }
  Packet copy = pkt;
  sim_->Schedule(kPropagationUs,
                 [this, key, seq, copy = std::move(copy)]() mutable {
                   OnFrameArrival(key, seq, std::move(copy));
                 });
}

void CircuitLayer::OnFrameArrival(const Key& key, std::uint64_t seq, Packet pkt) {
  if (!Reachable(key.src, key.dst)) {
    // The destination crashed or the link is partitioned: the frame vanishes
    // on the wire. No ack — the sender's retransmit timer keeps trying until
    // the fault heals.
    ++stats_.down_drops;
    return;
  }
  RecvCircuit& rc = recv_.At(key.src, key.dst);
  if (seq < rc.next_expected || rc.out_of_order.count(seq) != 0) {
    ++stats_.duplicates_suppressed;
    SendAck(key, rc.next_expected - 1);  // re-ack so the sender can advance
    return;
  }
  if (seq != rc.next_expected) {
    ++stats_.out_of_order_buffered;
    rc.out_of_order.emplace(seq, std::move(pkt));
    SendAck(key, rc.next_expected - 1);
    return;
  }
  // In sequence: release it and any buffered successors.
  release_(std::move(pkt));
  ++rc.next_expected;
  auto it = rc.out_of_order.begin();
  while (it != rc.out_of_order.end() && it->first == rc.next_expected) {
    release_(std::move(it->second));
    ++rc.next_expected;
    it = rc.out_of_order.erase(it);
  }
  SendAck(key, rc.next_expected - 1);
}

void CircuitLayer::SendAck(const Key& data_key, std::uint64_t cumulative) {
  ++stats_.acks_sent;
  if (Lost()) {
    ++stats_.acks_dropped;
    return;
  }
  sim_->Schedule(kPropagationUs,
                 [this, data_key, cumulative] { OnAck(data_key, cumulative); });
}

void CircuitLayer::OnAck(const Key& data_key, std::uint64_t cumulative) {
  // The ack travels against the data direction: receiver -> sender.
  if (!Reachable(data_key.dst, data_key.src)) {
    ++stats_.acks_dropped;
    return;
  }
  SendCircuit* scp = send_.Find(data_key.src, data_key.dst);
  if (scp == nullptr) {
    return;
  }
  SendCircuit& sc = *scp;
  while (!sc.unacked.empty() && sc.unacked.begin()->first <= cumulative) {
    sc.unacked.erase(sc.unacked.begin());
  }
  if (sc.unacked.empty() && sc.timer != 0) {
    sim_->Cancel(sc.timer);
    sc.timer = 0;
  }
}

void CircuitLayer::ArmTimer(const Key& key) {
  SendCircuit& sc = send_.At(key.src, key.dst);
  if (sc.timer != 0 || sc.unacked.empty()) {
    return;
  }
  sc.timer = sim_->Schedule(kRetransmitTimeoutUs, [this, key] { OnTimer(key); });
}

void CircuitLayer::OnTimer(const Key& key) {
  SendCircuit& sc = send_.At(key.src, key.dst);
  sc.timer = 0;
  // Go-back-style: retransmit every unacked frame (the window is small in
  // practice — the DSM protocol is request/response).
  for (const auto& [seq, pkt] : sc.unacked) {
    SendFrame(key, seq, pkt, /*is_retransmit=*/true);
  }
  ArmTimer(key);
}

void CircuitLayer::ResetSite(SiteId site) {
  // Every recv entry has a matching send entry (both live in this one
  // layer), so walking the send table covers each direction of every
  // circuit that touches the site exactly once.
  send_.ForEach([&](SiteId src, SiteId dst, SendCircuit& sc) {
    if (src != site && dst != site) {
      return;
    }
    if (sc.timer != 0) {
      sim_->Cancel(sc.timer);
      sc.timer = 0;
    }
    // The window's frames belong to a conversation that died with the
    // crash; drop them (counted like any other down loss).
    stats_.down_drops += sc.unacked.size();
    sc.unacked.clear();
    // Fast-forward the receiver past everything from before the reset.
    // next_seq is kept, so stale in-flight frames dedup instead of being
    // mistaken for fresh post-revive traffic.
    RecvCircuit& rc = recv_.At(src, dst);
    if (rc.next_expected < sc.next_seq) {
      rc.next_expected = sc.next_seq;
    }
    rc.out_of_order.clear();
  });
}

}  // namespace mnet
