// Tests for the Li-style synthetic application suite (§7.0): parallel
// matrix multiply, dot product, and branch-and-bound TSP over DSM. Each
// application verifies its own numeric result against a host-side oracle,
// so these are deep end-to-end coherence tests as much as workloads.
#include <gtest/gtest.h>

#include "src/baseline/li_engine.h"
#include "src/workload/dotproduct.h"
#include "src/workload/matrix.h"
#include "src/workload/tsp.h"

namespace {

using msim::kSecond;
using msysv::World;
using msysv::WorldOptions;

WorldOptions LiBackend() {
  WorldOptions opts;
  opts.backend_factory = mbase::MakeLiEngine;
  return opts;
}

TEST(MatrixMultiply, TwoWorkersProduceVerifiedResult) {
  World w(2);
  mwork::MatrixParams prm;
  prm.n = 12;
  prm.workers = 2;
  auto r = mwork::LaunchMatrixMultiply(w, prm);
  ASSERT_TRUE(w.RunUntil([&] { return r->completed; }, 600 * kSecond));
  EXPECT_TRUE(r->verified) << r->wrong_cells << " wrong cells";
  EXPECT_GT(r->ElapsedSeconds(), 0.0);
}

TEST(MatrixMultiply, ThreeWorkersWithWindow) {
  WorldOptions opts;
  opts.protocol.default_window_us = 33 * msim::kMillisecond;
  World w(3, opts);
  mwork::MatrixParams prm;
  prm.n = 12;
  prm.workers = 3;
  auto r = mwork::LaunchMatrixMultiply(w, prm);
  ASSERT_TRUE(w.RunUntil([&] { return r->completed; }, 600 * kSecond));
  EXPECT_TRUE(r->verified);
}

TEST(MatrixMultiply, VerifiedOnLiBaselineToo) {
  World w(2, LiBackend());
  mwork::MatrixParams prm;
  prm.n = 10;
  prm.workers = 2;
  auto r = mwork::LaunchMatrixMultiply(w, prm);
  ASSERT_TRUE(w.RunUntil([&] { return r->completed; }, 600 * kSecond));
  EXPECT_TRUE(r->verified);
}

TEST(DotProduct, PaddedPartialsVerified) {
  World w(2);
  mwork::DotProductParams prm;
  prm.length = 256;
  auto r = mwork::LaunchDotProduct(w, prm);
  ASSERT_TRUE(w.RunUntil([&] { return r->completed; }, 600 * kSecond));
  EXPECT_TRUE(r->verified) << r->value << " != " << r->expected;
}

TEST(DotProduct, CompactPartialsStillCorrectJustSlower) {
  auto run = [](bool padded) {
    World w(2);
    mwork::DotProductParams prm;
    prm.length = 256;
    prm.pad_partials = padded;
    prm.flush_every = 1;  // worst case: every accumulate hits the page
    auto r = mwork::LaunchDotProduct(w, prm);
    EXPECT_TRUE(w.RunUntil([&] { return r->completed; }, 900 * kSecond));
    EXPECT_TRUE(r->verified);
    return r->ElapsedSeconds();
  };
  double padded = run(true);
  double compact = run(false);
  // False sharing of the partial-sum page costs real time (Figure 1's
  // same-page-different-data scenario).
  EXPECT_LT(padded, compact);
}

TEST(Tsp, FindsOptimalTourTwoWorkers) {
  World w(2);
  mwork::TspParams prm;
  prm.cities = 7;
  auto r = mwork::LaunchTsp(w, prm);
  ASSERT_TRUE(w.RunUntil([&] { return r->completed; }, 900 * kSecond));
  EXPECT_TRUE(r->verified) << "got " << r->best_cost << ", optimal " << r->expected_cost;
  EXPECT_GT(r->nodes_expanded, 0u);
  EXPECT_GT(r->improvements, 0u);
}

TEST(Tsp, ThreeWorkersSameOptimum) {
  World w(3);
  mwork::TspParams prm;
  prm.cities = 7;
  prm.workers = 3;
  auto r = mwork::LaunchTsp(w, prm);
  ASSERT_TRUE(w.RunUntil([&] { return r->completed; }, 900 * kSecond));
  EXPECT_TRUE(r->verified);
}

TEST(Tsp, DeterministicNodesAndResult) {
  auto run = [] {
    World w(2);
    mwork::TspParams prm;
    prm.cities = 6;
    auto r = mwork::LaunchTsp(w, prm);
    w.RunUntil([&] { return r->completed; }, 900 * kSecond);
    return std::make_pair(r->best_cost, r->nodes_expanded);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
