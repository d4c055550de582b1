// Failure-injection tests: the Locus virtual-circuit transport must deliver
// exactly once, in order, over a lossy medium — and the whole DSM stack must
// stay coherent on top of it.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "src/net/circuit.h"
#include "src/sim/simulator.h"
#include "src/sysv/world.h"
#include "src/workload/pingpong.h"
#include "src/workload/readwriters.h"

namespace {

using mnet::CircuitLayer;
using mnet::CircuitOptions;
using mnet::Packet;
using msim::kMillisecond;
using msim::kSecond;
using msim::Simulator;

Packet Pkt(int src, int dst, std::uint32_t type) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.type = type;
  p.size_bytes = 64;
  return p;
}

struct CircuitFixture : public ::testing::Test {
  Simulator sim;
  std::vector<std::uint32_t> released;
  std::unique_ptr<CircuitLayer> layer;

  void Boot(double loss, std::uint64_t seed = 42) {
    CircuitOptions opts;
    opts.loss_probability = loss;
    opts.loss_seed = seed;
    opts.retransmit_timeout_us = 20 * kMillisecond;
    layer = std::make_unique<CircuitLayer>(&sim, opts,
                                           [this](const Packet& p) {
                                             released.push_back(p.type);
                                           });
  }
};

TEST_F(CircuitFixture, LosslessPassthroughPreservesOrder) {
  Boot(0.0);
  EXPECT_FALSE(layer->Active());
  for (std::uint32_t i = 1; i <= 5; ++i) {
    layer->Transmit(Pkt(0, 1, i));
  }
  sim.Run();
  EXPECT_EQ(released, (std::vector<std::uint32_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(layer->stats().acks_sent, 0u);  // inert fast path
}

TEST_F(CircuitFixture, HeavyLossStillDeliversAllInOrder) {
  Boot(0.4);
  EXPECT_TRUE(layer->Active());
  for (std::uint32_t i = 1; i <= 50; ++i) {
    layer->Transmit(Pkt(0, 1, i));
  }
  sim.RunUntil(60 * kSecond);
  ASSERT_EQ(released.size(), 50u);
  for (std::uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(released[i], i + 1);
  }
  EXPECT_GT(layer->stats().frames_dropped, 0u);
  EXPECT_GT(layer->stats().retransmits, 0u);
}

TEST_F(CircuitFixture, NoDuplicateDeliveriesDespiteRetransmits) {
  // Drop acks aggressively: data arrives, acks die, sender retransmits,
  // receiver must suppress the duplicates.
  Boot(0.5, /*seed=*/7);
  for (std::uint32_t i = 1; i <= 30; ++i) {
    layer->Transmit(Pkt(0, 1, i));
  }
  sim.RunUntil(120 * kSecond);
  ASSERT_EQ(released.size(), 30u);
  EXPECT_GT(layer->stats().duplicates_suppressed, 0u);
}

TEST_F(CircuitFixture, CircuitsArePerDirectedPair) {
  Boot(0.3);
  layer->Transmit(Pkt(0, 1, 101));
  layer->Transmit(Pkt(1, 0, 201));
  layer->Transmit(Pkt(0, 2, 301));
  layer->Transmit(Pkt(0, 1, 102));
  sim.RunUntil(30 * kSecond);
  ASSERT_EQ(released.size(), 4u);
  // Per-pair order: 101 before 102.
  auto pos = [&](std::uint32_t v) {
    return std::find(released.begin(), released.end(), v) - released.begin();
  };
  EXPECT_LT(pos(101), pos(102));
}

TEST_F(CircuitFixture, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    Simulator lsim;
    std::vector<msim::Time> times;
    CircuitOptions opts;
    opts.loss_probability = 0.3;
    opts.loss_seed = seed;
    CircuitLayer llayer(&lsim, opts, [&](const Packet&) { times.push_back(lsim.Now()); });
    for (std::uint32_t i = 1; i <= 20; ++i) {
      llayer.Transmit(Pkt(0, 1, i));
    }
    lsim.RunUntil(60 * kSecond);
    return times;
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

TEST_F(CircuitFixture, RetransmitLimitDeclaresCircuitDownWithoutThrowing) {
  CircuitOptions opts;
  opts.loss_probability = 1.0;  // black hole
  opts.max_retransmits = 3;
  opts.retransmit_timeout_us = 10 * kMillisecond;
  layer = std::make_unique<CircuitLayer>(&sim, opts, [](const Packet&) {});
  layer->Transmit(Pkt(0, 1, 1));
  // The budget exhausts quietly: the circuit is declared down and counted
  // — a dead peer must never abort the simulation.
  EXPECT_NO_THROW(sim.RunUntil(10 * kSecond));
  EXPECT_EQ(layer->stats().circuits_failed, 1u);
  EXPECT_TRUE(layer->CircuitDown(0, 1));
  EXPECT_FALSE(layer->CircuitDown(1, 0));
  // Traffic offered to the failed circuit is refused and counted.
  std::uint64_t drops_before = layer->stats().down_drops;
  layer->Transmit(Pkt(0, 1, 2));
  sim.RunUntil(20 * kSecond);
  EXPECT_GT(layer->stats().down_drops, drops_before);
  EXPECT_EQ(layer->stats().circuits_failed, 1u);  // declared once, not per frame
}

TEST_F(CircuitFixture, SustainedHighLossDeliversExactlyOnceInOrder) {
  // 35% sustained loss on both data and acks across 200 frames: every frame
  // still arrives exactly once, in order.
  Boot(0.35, /*seed=*/1234);
  for (std::uint32_t i = 1; i <= 200; ++i) {
    layer->Transmit(Pkt(0, 1, i));
  }
  sim.RunUntil(600 * kSecond);
  ASSERT_EQ(released.size(), 200u);
  for (std::uint32_t i = 0; i < 200; ++i) {
    ASSERT_EQ(released[i], i + 1);
  }
  EXPECT_GT(layer->stats().frames_dropped, 0u);
  EXPECT_GT(layer->stats().retransmits, 0u);
  EXPECT_EQ(layer->stats().circuits_failed, 0u);  // default budget: never give up
}

TEST_F(CircuitFixture, AsymmetricAckOnlyLossSuppressesDuplicates) {
  // The hard duplicate-suppression case: every data frame arrives, but many
  // acks die. The sender retransmits frames the receiver already has; the
  // receiver must deliver each exactly once and re-ack.
  CircuitOptions opts;
  opts.loss_probability = 0.0;
  opts.ack_loss_probability = 0.6;
  opts.loss_seed = 77;
  opts.retransmit_timeout_us = 20 * kMillisecond;
  layer = std::make_unique<CircuitLayer>(&sim, opts,
                                         [this](const Packet& p) { released.push_back(p.type); });
  EXPECT_TRUE(layer->Active());  // ack loss alone activates sequencing
  for (std::uint32_t i = 1; i <= 40; ++i) {
    layer->Transmit(Pkt(0, 1, i));
  }
  sim.RunUntil(300 * kSecond);
  ASSERT_EQ(released.size(), 40u);
  for (std::uint32_t i = 0; i < 40; ++i) {
    ASSERT_EQ(released[i], i + 1);
  }
  EXPECT_EQ(layer->stats().frames_dropped, 0u);   // data never dropped
  EXPECT_GT(layer->stats().acks_dropped, 0u);     // acks were
  EXPECT_GT(layer->stats().duplicates_suppressed, 0u);
  EXPECT_GT(layer->stats().retransmits, 0u);
}

TEST_F(CircuitFixture, PartitionHealsAndRetransmissionRecovers) {
  // A deterministic partition (the link is cut, then healed): frames sent
  // into the partition vanish, and after the heal the retransmit machinery
  // delivers everything, in order, exactly once.
  CircuitOptions opts;
  opts.force_sequencing = true;  // no random loss; the partition is the fault
  opts.retransmit_timeout_us = 20 * kMillisecond;
  opts.max_retransmits = 0;  // unlimited budget: survive any outage length
  mnet::Liveness live;
  layer = std::make_unique<CircuitLayer>(
      &sim, opts, [this](const Packet& p) { released.push_back(p.type); }, &live);

  layer->Transmit(Pkt(0, 1, 1));
  sim.ScheduleAt(5 * kMillisecond, [&] { live.Cut(0, 1); });
  // Frames 2..6 are sent into the partition.
  for (std::uint32_t i = 2; i <= 6; ++i) {
    sim.ScheduleAt(10 * kMillisecond * i, [&, i] { layer->Transmit(Pkt(0, 1, i)); });
  }
  sim.ScheduleAt(400 * kMillisecond, [&] { live.Heal(0, 1); });
  sim.RunUntil(30 * kSecond);

  ASSERT_EQ(released.size(), 6u);
  for (std::uint32_t i = 0; i < 6; ++i) {
    ASSERT_EQ(released[i], i + 1);
  }
  EXPECT_GT(layer->stats().down_drops, 0u);   // frames died in the partition
  EXPECT_GT(layer->stats().retransmits, 0u);  // recovery really ran
  EXPECT_EQ(layer->stats().circuits_failed, 0u);
}

TEST_F(CircuitFixture, StatsDeterministicAcrossSameSeedRuns) {
  auto run = [](double loss, double ack_loss, std::uint64_t seed) {
    Simulator lsim;
    std::vector<std::uint32_t> rel;
    CircuitOptions opts;
    opts.loss_probability = loss;
    opts.ack_loss_probability = ack_loss;
    opts.loss_seed = seed;
    opts.retransmit_timeout_us = 20 * kMillisecond;
    CircuitLayer llayer(&lsim, opts, [&](const Packet& p) { rel.push_back(p.type); });
    for (std::uint32_t i = 1; i <= 60; ++i) {
      llayer.Transmit(Pkt(0, 1, i));
    }
    lsim.RunUntil(300 * kSecond);
    const mnet::CircuitStats& s = llayer.stats();
    return std::tuple{rel,
                      s.data_frames_sent,
                      s.frames_dropped,
                      s.retransmits,
                      s.duplicates_suppressed,
                      s.acks_sent,
                      s.acks_dropped,
                      lsim.Now()};
  };
  EXPECT_EQ(run(0.3, 0.5, 21), run(0.3, 0.5, 21));
  EXPECT_NE(run(0.3, 0.5, 21), run(0.3, 0.5, 22));
}

// ---- the full stack over a lossy medium ----

TEST(LossyWorld, PingPongStaysCoherentAt20PercentLoss) {
  msysv::WorldOptions opts;
  opts.circuit = CircuitOptions{};
  opts.circuit->loss_probability = 0.2;
  msysv::World w(2, opts);
  mwork::PingPongParams prm;
  prm.rounds = 10;
  auto r = mwork::LaunchPingPong(w, prm);
  ASSERT_TRUE(w.RunUntil([&] { return r->completed(); }, 300 * kSecond));
  EXPECT_EQ(r->cycles, 10);
  const mnet::CircuitStats* cs = w.network().circuit_stats();
  ASSERT_NE(cs, nullptr);
  EXPECT_GT(cs->frames_dropped, 0u);  // loss really happened
}

TEST(LossyWorld, ReadWritersExactOpsUnderLoss) {
  msysv::WorldOptions opts;
  opts.protocol.default_window_us = 50 * kMillisecond;
  opts.circuit = CircuitOptions{};
  opts.circuit->loss_probability = 0.15;
  opts.circuit->loss_seed = 99;
  msysv::World w(2, opts);
  mwork::ReadWritersParams prm;
  prm.iterations = 2000;
  auto r = mwork::LaunchReadWriters(w, prm);
  ASSERT_TRUE(w.RunUntil([&] { return r->completed(); }, 600 * kSecond));
  // The exact op count proves no protocol message was lost or duplicated.
  EXPECT_EQ(r->total_ops(), 2u * (2u * 2000u + 1u));
}

TEST(LossyWorld, LossSlowsButNeverCorrupts) {
  auto run = [](double loss) {
    msysv::WorldOptions opts;
    if (loss > 0) {
      opts.circuit = CircuitOptions{};
      opts.circuit->loss_probability = loss;
    }
    msysv::World w(2, opts);
    mwork::PingPongParams prm;
    prm.rounds = 8;
    auto r = mwork::LaunchPingPong(w, prm);
    EXPECT_TRUE(w.RunUntil([&] { return r->completed(); }, 600 * kSecond));
    return w.sim().Now();
  };
  msim::Time clean = run(0.0);
  msim::Time lossy = run(0.3);
  EXPECT_GT(lossy, clean);
}

}  // namespace
