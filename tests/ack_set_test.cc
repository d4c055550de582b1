// AckSet on its own, no World: the completion rules, both kinds of
// forgiveness, per-site owed counts, and the crash-incarnation fence.
#include "src/mirage/ack_set.h"

#include <gtest/gtest.h>

#include "src/net/liveness.h"

namespace {

using mirage::AckSet;
using Rule = AckSet::Rule;
using Forgiveness = AckSet::Forgiveness;
using State = AckSet::State;

AckSet Make(Rule rule, Forgiveness forgiveness, msim::Time created_at = 0) {
  return AckSet(rule, forgiveness, created_at, /*deadline=*/0, /*period=*/0);
}

TEST(AckSet, AllOfCompletesWhenEveryOwedAckArrives) {
  AckSet a = Make(Rule::kAll, Forgiveness::kCount);
  a.Owe(1);
  a.Owe(2);
  EXPECT_EQ(a.state(), State::kPending);
  EXPECT_TRUE(a.Credit(1));
  EXPECT_EQ(a.state(), State::kPending);
  EXPECT_TRUE(a.Credit(2));
  EXPECT_EQ(a.state(), State::kComplete);
  EXPECT_EQ(a.got(), 2);
}

TEST(AckSet, AllOfWithNothingOwedIsComplete) {
  EXPECT_EQ(Make(Rule::kAll, Forgiveness::kShrink).state(), State::kComplete);
}

TEST(AckSet, CountedForgivenessCompletesAndCountsAsAcked) {
  AckSet a = Make(Rule::kAll, Forgiveness::kCount);
  a.Owe(1);
  a.Owe(2);
  a.Owe(3);
  ASSERT_TRUE(a.Credit(1));
  EXPECT_EQ(a.Forgive(mmem::MaskOf(2) | mmem::MaskOf(3)), 2);
  EXPECT_EQ(a.state(), State::kComplete);
  EXPECT_EQ(a.got(), 3);  // forgiven acks count as delivered
  EXPECT_EQ(a.owing(), mmem::SiteMask(0));
}

TEST(AckSet, ShrinkingForgivenessIsNoProgress) {
  AckSet a = Make(Rule::kAll, Forgiveness::kShrink);
  a.Owe(1);
  a.Owe(2);
  EXPECT_EQ(a.Forgive(mmem::MaskOf(2)), 1);
  EXPECT_EQ(a.got(), 0);
  EXPECT_EQ(a.state(), State::kPending);
  ASSERT_TRUE(a.Credit(1));
  EXPECT_EQ(a.state(), State::kComplete);
}

TEST(AckSet, ForgivingASiteNotOwingIsANoOp) {
  AckSet a = Make(Rule::kAll, Forgiveness::kCount);
  a.Owe(1);
  EXPECT_EQ(a.Forgive(mmem::MaskOf(4)), 0);
  EXPECT_EQ(a.state(), State::kPending);
}

TEST(AckSet, MajorityNeedsAQuorumOfTheFullSet) {
  AckSet a = Make(Rule::kMajority, Forgiveness::kShrink);
  a.Owe(0);
  a.Owe(1);
  a.Owe(2);
  ASSERT_TRUE(a.Credit(0));
  EXPECT_EQ(a.state(), State::kPending);  // 1 of 3; quorum is 2
  ASSERT_TRUE(a.Credit(1));
  EXPECT_EQ(a.state(), State::kComplete);
}

TEST(AckSet, MajorityQuorumShrinksWithKEff) {
  // k = 3 with one standby gone: k_eff = 2, so the quorum is 2 of 2.
  AckSet a = Make(Rule::kMajority, Forgiveness::kShrink);
  a.Owe(0);
  a.Owe(1);
  a.Owe(2);
  ASSERT_EQ(a.Forgive(mmem::MaskOf(2)), 1);
  ASSERT_TRUE(a.Credit(0));
  EXPECT_EQ(a.state(), State::kPending);
  ASSERT_TRUE(a.Credit(1));
  EXPECT_EQ(a.state(), State::kComplete);
}

TEST(AckSet, MajorityFailsWhenEveryStandbyIsGone) {
  AckSet a = Make(Rule::kMajority, Forgiveness::kShrink);
  a.Owe(1);
  a.Owe(2);
  ASSERT_EQ(a.Forgive(mmem::MaskOf(1) | mmem::MaskOf(2)), 2);
  EXPECT_EQ(a.state(), State::kFailed);
}

TEST(AckSet, MajorityOfOneSurvivorNeedsItsAck) {
  AckSet a = Make(Rule::kMajority, Forgiveness::kShrink);
  a.Owe(1);
  a.Owe(2);
  ASSERT_EQ(a.Forgive(mmem::MaskOf(2)), 1);
  EXPECT_EQ(a.state(), State::kPending);
  ASSERT_TRUE(a.Credit(1));
  EXPECT_EQ(a.state(), State::kComplete);
}

TEST(AckSet, OneSiteMayOweSeveralAcks) {
  AckSet a = Make(Rule::kAll, Forgiveness::kCount);
  a.Owe(0);
  a.Owe(0);
  a.Owe(3);
  ASSERT_TRUE(a.Credit(0));
  EXPECT_EQ(a.owing(), mmem::MaskOf(0) | mmem::MaskOf(3));  // site 0 still owes one
  ASSERT_TRUE(a.Credit(3));
  EXPECT_EQ(a.state(), State::kPending);
  ASSERT_TRUE(a.Credit(0));
  EXPECT_EQ(a.state(), State::kComplete);
}

TEST(AckSet, ForgivingASiteForgivesEverythingItOwes) {
  // The promotion case: two pages promoted at site 0, which dies, once
  // before acking anything and once after acking one page.
  AckSet before = Make(Rule::kAll, Forgiveness::kCount);
  before.Owe(0, 2);
  EXPECT_EQ(before.Forgive(mmem::MaskOf(0)), 2);
  EXPECT_EQ(before.state(), State::kComplete);

  AckSet after = Make(Rule::kAll, Forgiveness::kCount);
  after.Owe(0, 2);
  ASSERT_TRUE(after.Credit(0));
  EXPECT_EQ(after.Forgive(mmem::MaskOf(0)), 1);
  EXPECT_EQ(after.state(), State::kComplete);
}

TEST(AckSet, DuplicateAckIsIdempotent) {
  AckSet a = Make(Rule::kAll, Forgiveness::kCount);
  a.Owe(1);
  a.Owe(2);
  ASSERT_TRUE(a.Credit(1));
  EXPECT_FALSE(a.Credit(1));
  EXPECT_FALSE(a.Credit(5));  // never owed
  EXPECT_EQ(a.got(), 1);
  EXPECT_EQ(a.state(), State::kPending);
}

TEST(AckSet, PinnedSiteIsNeverForgiven) {
  AckSet a = Make(Rule::kAll, Forgiveness::kCount);
  a.Owe(2);
  a.Pin(2);
  EXPECT_EQ(a.Forgive(mmem::MaskOf(2)), 0);
  EXPECT_EQ(a.got(), 0);
  EXPECT_EQ(a.state(), State::kPending);
  ASSERT_TRUE(a.Credit(2));
  EXPECT_EQ(a.state(), State::kComplete);
}

TEST(AckSet, IncarnationFence) {
  const msim::Time created_at = 1000;
  AckSet a = Make(Rule::kAll, Forgiveness::kCount, created_at);
  a.Owe(1);
  a.Owe(2);
  a.Owe(3);
  mnet::Liveness live;
  // Site 1 crashed after the set was created and has rejoined: the message
  // it owed died with the old incarnation, so it is gone.
  live.Crash(1, 1500);
  live.Recover(1);
  // Site 2 crashed before the set was created and is up: its current
  // incarnation received the request, so it still owes the ack.
  live.Crash(2, 400);
  live.Recover(2);
  // Site 3 is down right now (it crashed before the set was created).
  live.Crash(3, 200);
  EXPECT_TRUE(a.Gone(live, 1));
  EXPECT_FALSE(a.Gone(live, 2));
  EXPECT_TRUE(a.Gone(live, 3));
  EXPECT_EQ(a.GoneOwing(live), mmem::MaskOf(1) | mmem::MaskOf(3));
  // A crash at the creation instant is already after the request left.
  live.Crash(2, created_at);
  live.Recover(2);
  EXPECT_TRUE(a.Gone(live, 2));
}

TEST(AckSet, NextSleepHonoursDeadlineAndPeriod) {
  // Neither: sleep until woken.
  EXPECT_EQ(AckSet(Rule::kAll, Forgiveness::kCount, 0, 0, 0).NextSleep(50), 0);
  EXPECT_FALSE(AckSet(Rule::kAll, Forgiveness::kCount, 0, 0, 0).timed());
  // Period only: re-examine every period.
  EXPECT_EQ(AckSet(Rule::kAll, Forgiveness::kCount, 0, 0, 100).NextSleep(50), 100);
  // Deadline only: sleep to it, then report it passed.
  AckSet d(Rule::kAll, Forgiveness::kCount, 0, /*deadline=*/500, /*period=*/0);
  EXPECT_TRUE(d.timed());
  EXPECT_EQ(d.NextSleep(200), 300);
  EXPECT_LT(d.NextSleep(500), 0);
  // Both: the period, clamped to what is left before the deadline.
  AckSet b(Rule::kAll, Forgiveness::kCount, 0, /*deadline=*/500, /*period=*/100);
  EXPECT_EQ(b.NextSleep(200), 100);
  EXPECT_EQ(b.NextSleep(450), 50);
  EXPECT_LT(b.NextSleep(501), 0);
}

}  // namespace
