// Unit tests for the network substrate: cost model arithmetic, the
// liveness table, delivery, ordering, statistics, and observers.
#include <gtest/gtest.h>

#include <vector>

#include "src/net/cost_model.h"
#include "src/net/liveness.h"
#include "src/net/network.h"
#include "src/net/packet.h"
#include "src/sim/simulator.h"

namespace {

using mnet::CostModel;
using mnet::Liveness;
using mnet::Network;
using mnet::Packet;

TEST(CostModel, PaperRoundTripArithmetic) {
  CostModel c;
  // Short round trip: tx + rx each way = 12.9 ms (§7.1).
  EXPECT_EQ(2 * c.TxCost(64) + 2 * c.RxCost(64), 12900);
  // 1 KB message out, short reply back = 21.45 ms (paper: 21.5).
  EXPECT_EQ(c.TxCost(1024) + c.RxCost(1024) + c.TxCost(64) + c.RxCost(64), 21450);
}

TEST(CostModel, ThresholdSplitsShortAndLarge) {
  CostModel c;
  EXPECT_EQ(c.TxCost(0), c.tx_short_us);
  EXPECT_EQ(c.TxCost(255), c.tx_short_us);
  EXPECT_EQ(c.TxCost(256), c.tx_large_us);
  EXPECT_EQ(c.RxCost(576), c.rx_large_us);
}

TEST(Liveness, CrashClearsPause) {
  Liveness live;
  ASSERT_TRUE(live.Pause(2));
  EXPECT_TRUE(live.Paused(2));
  EXPECT_TRUE(live.Crash(2, 50));
  EXPECT_FALSE(live.SiteUp(2));
  EXPECT_FALSE(live.Paused(2));
  // The pause does not come back with the site.
  EXPECT_TRUE(live.Recover(2));
  EXPECT_TRUE(live.SiteUp(2));
  EXPECT_FALSE(live.Paused(2));
}

TEST(Liveness, WritesThatChangeNothingReportNoChange) {
  Liveness live;
  EXPECT_FALSE(live.Recover(1));  // live already
  ASSERT_TRUE(live.Crash(1, 10));
  EXPECT_FALSE(live.Crash(1, 20));  // down already; the first instant stands
  EXPECT_EQ(live.CrashedAt(1), 10);
  EXPECT_FALSE(live.Pause(1));  // a down site cannot be paused
  EXPECT_FALSE(live.Paused(1));
  EXPECT_FALSE(live.Resume(1));
  EXPECT_FALSE(live.Heal(0, 1));  // never cut
}

TEST(Liveness, CutAndHealAreSymmetric) {
  Liveness live;
  ASSERT_TRUE(live.Cut(3, 1));
  EXPECT_FALSE(live.LinkUp(1, 3));
  EXPECT_FALSE(live.LinkUp(3, 1));
  EXPECT_FALSE(live.Reachable(1, 3));
  EXPECT_FALSE(live.Cut(1, 3));  // the same link
  EXPECT_TRUE(live.LinkUp(1, 2));
  EXPECT_TRUE(live.SiteUp(3));  // a cut link leaves both ends up
  EXPECT_TRUE(live.Heal(1, 3));
  EXPECT_TRUE(live.LinkUp(3, 1));
  EXPECT_FALSE(live.Heal(3, 1));
}

TEST(Liveness, CrashedSinceSurvivesRecovery) {
  Liveness live;
  EXPECT_FALSE(live.CrashedSince(0, 0));  // never crashed
  ASSERT_TRUE(live.Crash(0, 100));
  ASSERT_TRUE(live.Recover(0));
  EXPECT_TRUE(live.SiteUp(0));
  EXPECT_TRUE(live.CrashedSince(0, 100));
  EXPECT_TRUE(live.CrashedSince(0, 40));
  EXPECT_FALSE(live.CrashedSince(0, 101));
  // Sites the table has never seen are healthy.
  EXPECT_TRUE(live.SiteUp(9));
  EXPECT_TRUE(live.Reachable(9, 8));
  EXPECT_FALSE(live.CrashedSince(9, 0));
}

struct NetFixture : public ::testing::Test {
  msim::Simulator sim;
  CostModel costs;
  Network net{&sim, &costs};
};

TEST_F(NetFixture, DeliversToRegisteredSink) {
  std::vector<std::uint32_t> got;
  net.RegisterSite(1, [&](Packet p) { got.push_back(p.type); });
  Packet p;
  p.src = 0;
  p.dst = 1;
  p.type = 42;
  p.size_bytes = 64;
  net.Deliver(p);
  EXPECT_EQ(got, (std::vector<std::uint32_t>{42}));
}

TEST_F(NetFixture, UnregisteredDestinationThrows) {
  Packet p;
  p.dst = 9;
  EXPECT_THROW(net.Deliver(p), std::logic_error);
}

TEST_F(NetFixture, DoubleRegistrationThrows) {
  net.RegisterSite(1, [](Packet) {});
  EXPECT_THROW(net.RegisterSite(1, [](Packet) {}), std::logic_error);
}

TEST_F(NetFixture, StatsCountShortAndLarge) {
  net.RegisterSite(1, [](Packet) {});
  Packet s;
  s.dst = 1;
  s.type = 1;
  s.size_bytes = 64;
  Packet l;
  l.dst = 1;
  l.type = 2;
  l.size_bytes = 576;
  net.Deliver(s);
  net.Deliver(s);
  net.Deliver(l);
  EXPECT_EQ(net.stats().packets, 3u);
  EXPECT_EQ(net.stats().short_packets, 2u);
  EXPECT_EQ(net.stats().large_packets, 1u);
  EXPECT_EQ(net.stats().payload_bytes, 64u + 64u + 576u);
  EXPECT_EQ(net.stats().packets_by_type.at(1), 2u);
  EXPECT_EQ(net.stats().packets_by_type.at(2), 1u);
  net.ResetStats();
  EXPECT_EQ(net.stats().packets, 0u);
}

TEST_F(NetFixture, ObserversSeeEveryPacketWithTimestamp) {
  net.RegisterSite(1, [](Packet) {});
  std::vector<msim::Time> times;
  net.AddObserver([&](const Packet&, msim::Time t) { times.push_back(t); });
  sim.Schedule(500, [&] {
    Packet p;
    p.dst = 1;
    p.size_bytes = 64;
    net.Deliver(p);
  });
  sim.Run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 500);
}

TEST(PacketBody, TypedRoundTrip) {
  struct Body {
    int a;
    double b;
  };
  Packet p = mnet::MakePacket(0, 1, 7, 64, Body{42, 2.5});
  const Body& body = mnet::PacketBody<Body>(p);
  EXPECT_EQ(body.a, 42);
  EXPECT_EQ(body.b, 2.5);
}

}  // namespace
