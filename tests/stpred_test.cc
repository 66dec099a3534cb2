#include <gtest/gtest.h>

#include <cmath>

#include "routing/route_planner.h"
#include "stpred/divergence.h"
#include "stpred/predictor.h"
#include "stpred/st_score.h"
#include "stpred/std_matrix.h"
#include "tests/test_util.h"

namespace dpdp {
namespace {

using testing::MakeOrder;
using testing::MakeTestInstance;

// ----------------------------------------------------------- STD matrix ---

TEST(StdMatrix, AccumulatesByFactoryAndInterval) {
  const auto net = testing::MakeLineNetwork();
  // F1 = factory ordinal 0, F2 = ordinal 1.
  std::vector<Order> orders{
      MakeOrder(0, 1, 2, 5.0, 3.0, 100.0),     // F1, interval 0.
      MakeOrder(1, 1, 3, 7.0, 8.0, 100.0),     // F1, interval 0.
      MakeOrder(2, 2, 1, 2.0, 15.0, 100.0),    // F2, interval 1.
      MakeOrder(3, 1, 2, 4.0, 1435.0, 2000.0)  // F1, last interval.
  };
  const nn::Matrix e = BuildStdMatrix(*net, orders, 144, kMinutesPerDay);
  EXPECT_EQ(e.rows(), 4);
  EXPECT_EQ(e.cols(), 144);
  EXPECT_DOUBLE_EQ(e(0, 0), 12.0);
  EXPECT_DOUBLE_EQ(e(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(e(0, 143), 4.0);
  EXPECT_DOUBLE_EQ(e.SumAll(), 18.0);
}

TEST(StdMatrix, DepotOriginOrdersIgnored) {
  const auto net = testing::MakeLineNetwork();
  std::vector<Order> orders{MakeOrder(0, 0, 2, 5.0, 3.0, 100.0)};
  const nn::Matrix e = BuildStdMatrix(*net, orders, 144, kMinutesPerDay);
  EXPECT_DOUBLE_EQ(e.SumAll(), 0.0);
}

TEST(StdMatrix, CapacityVisitAccumulation) {
  const auto net = testing::MakeLineNetwork();
  nn::Matrix cap(4, 144);
  AddCapacityVisit(*net, 1, 5.0, 80.0, 144, kMinutesPerDay, &cap);
  AddCapacityVisit(*net, 1, 7.0, 20.0, 144, kMinutesPerDay, &cap);
  AddCapacityVisit(*net, 0, 5.0, 50.0, 144, kMinutesPerDay, &cap);  // Depot.
  EXPECT_DOUBLE_EQ(cap(0, 0), 100.0);
  EXPECT_DOUBLE_EQ(cap.SumAll(), 100.0);
}

TEST(StdMatrix, DistributionDiffIsFrobenius) {
  nn::Matrix a(2, 2);
  nn::Matrix b(2, 2);
  a(0, 0) = 3.0;
  b(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(DistributionDiff(a, b), 5.0);
}

// ------------------------------------------------------------ Predictors --

TEST(Predictor, AverageOfHistory) {
  nn::Matrix d1(2, 3, 1.0);
  nn::Matrix d2(2, 3, 3.0);
  const auto p = AverageStdPredictor().Predict({d1, d2});
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value().AllClose(nn::Matrix(2, 3, 2.0)));
}

TEST(Predictor, AverageWindowUsesRecentDaysOnly) {
  nn::Matrix d1(1, 1, 10.0);
  nn::Matrix d2(1, 1, 2.0);
  nn::Matrix d3(1, 1, 4.0);
  const auto p = AverageStdPredictor(/*window=*/2).Predict({d1, d2, d3});
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p.value()(0, 0), 3.0);
}

TEST(Predictor, RejectsEmptyOrMismatchedHistory) {
  EXPECT_FALSE(AverageStdPredictor().Predict({}).ok());
  EXPECT_FALSE(
      AverageStdPredictor().Predict({nn::Matrix(1, 2), nn::Matrix(2, 1)})
          .ok());
}

TEST(Predictor, EwmaWeightsRecentDaysMore) {
  nn::Matrix d1(1, 1, 0.0);
  nn::Matrix d2(1, 1, 10.0);
  const auto p = EwmaStdPredictor(0.5).Predict({d1, d2});
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p.value()(0, 0), 5.0);
  const auto p2 = EwmaStdPredictor(0.9).Predict({d1, d2});
  EXPECT_DOUBLE_EQ(p2.value()(0, 0), 9.0);
}

TEST(Predictor, EwmaRejectsBadAlpha) {
  EXPECT_FALSE(EwmaStdPredictor(0.0).Predict({nn::Matrix(1, 1)}).ok());
  EXPECT_FALSE(EwmaStdPredictor(1.5).Predict({nn::Matrix(1, 1)}).ok());
}

// ------------------------------------------------------------ Divergence --

using Vec = std::vector<double>;

TEST(Divergence, NormalizeHandlesZeroAndNegative) {
  Vec p;
  NormalizeDistribution(Vec{0.0, 0.0}, &p);
  EXPECT_NEAR(p[0], 0.5, 1e-9);
  Vec q;
  NormalizeDistribution(Vec{-5.0, 1.0}, &q);
  EXPECT_LT(q[0], q[1]);
  EXPECT_NEAR(q[0] + q[1], 1.0, 1e-12);
}

TEST(Divergence, JsZeroForIdenticalVectors) {
  DivergenceScratch scratch;
  EXPECT_NEAR(JsDivergence(Vec{1, 2, 3}, Vec{1, 2, 3}, &scratch), 0.0, 1e-9);
  // Scale invariance (both are normalized).
  EXPECT_NEAR(JsDivergence(Vec{1, 2, 3}, Vec{2, 4, 6}, &scratch), 0.0, 1e-9);
}

TEST(Divergence, JsIsSymmetricAndBounded) {
  const Vec a{10, 0, 0};
  const Vec b{0, 0, 10};
  DivergenceScratch scratch;
  const double ab = JsDivergence(a, b, &scratch);
  EXPECT_NEAR(ab, JsDivergence(b, a, &scratch), 1e-12);
  EXPECT_LE(ab, std::log(2.0) + 1e-9);
  EXPECT_GT(ab, 0.5);  // Nearly disjoint supports.
}

TEST(Divergence, SymmetricKlIsSymmetric) {
  const Vec a{5, 3, 1};
  const Vec b{1, 3, 5};
  DivergenceScratch scratch;
  const double ab = SymmetricKlDivergence(a, b, &scratch);
  EXPECT_NEAR(ab, SymmetricKlDivergence(b, a, &scratch), 1e-12);
  EXPECT_GT(ab, 0.0);
}

TEST(Divergence, KlOfIdenticalIsZero) {
  Vec p;
  NormalizeDistribution(Vec{1, 2, 3}, &p);
  EXPECT_NEAR(KlDivergence(p, p), 0.0, 1e-12);
}

TEST(Divergence, EmptyVectorsGiveZero) {
  DivergenceScratch scratch;
  EXPECT_DOUBLE_EQ(JsDivergence({}, {}, &scratch), 0.0);
  EXPECT_DOUBLE_EQ(SymmetricKlDivergence({}, {}, &scratch), 0.0);
}

TEST(Divergence, DispatchMatchesDirectCalls) {
  const Vec a{3, 1};
  const Vec b{1, 3};
  DivergenceScratch scratch;
  EXPECT_DOUBLE_EQ(Divergence(DivergenceKind::kJensenShannon, a, b, &scratch),
                   JsDivergence(a, b, &scratch));
  EXPECT_DOUBLE_EQ(Divergence(DivergenceKind::kSymmetricKl, a, b, &scratch),
                   SymmetricKlDivergence(a, b, &scratch));
}

// A scratch reused across inputs of different lengths leaks nothing: each
// call equals one on a fresh scratch, bit for bit.
TEST(Divergence, ReusedScratchMatchesFreshScratch) {
  const std::vector<std::pair<Vec, Vec>> cases = {
      {Vec{5, 3, 1, 0, 2}, Vec{1, 3, 5, 2, 0}},
      {Vec{3, 1}, Vec{1, 3}},
      {Vec{0, 0, 0}, Vec{-1, 4, 2}},
      {Vec{7}, Vec{2}}};
  DivergenceScratch reused;
  for (const auto& [a, b] : cases) {
    for (const DivergenceKind kind :
         {DivergenceKind::kJensenShannon, DivergenceKind::kSymmetricKl}) {
      DivergenceScratch fresh;
      EXPECT_EQ(Divergence(kind, a, b, &reused),
                Divergence(kind, a, b, &fresh));
    }
  }
}

// -------------------------------------------------------------- ST Score --

class StScoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    inst_ = MakeTestInstance({MakeOrder(0, 1, 2, 30.0, 0.0, 500.0),
                              MakeOrder(1, 2, 3, 20.0, 0.0, 500.0)});
    planner_ = std::make_unique<RoutePlanner>(&inst_);
    const PlanAnchor anchor{0, 0.0, {}};
    suffix_ = {{1, 0, StopType::kPickup},
               {2, 0, StopType::kDelivery},
               {2, 1, StopType::kPickup},
               {3, 1, StopType::kDelivery}};
    auto r = planner_->CheckSuffix(anchor, suffix_, 0);
    DPDP_CHECK(r.ok());
    schedule_ = std::move(r).value();
  }

  Instance inst_;
  std::unique_ptr<RoutePlanner> planner_;
  std::vector<Stop> suffix_;
  SuffixSchedule schedule_;
};

TEST_F(StScoreTest, VectorsFollowRouteVisits) {
  nn::Matrix demand(4, 144, 1.0);
  demand(0, 1) = 9.0;  // F1 in interval 1 (arrival at minute 10).
  std::vector<double> capacity;
  std::vector<double> dem;
  BuildStVectors(*inst_.network, suffix_, schedule_, demand, 144,
                 kMinutesPerDay, &capacity, &dem);
  ASSERT_EQ(capacity.size(), 4u);
  ASSERT_EQ(dem.size(), 4u);
  EXPECT_DOUBLE_EQ(capacity[0], 100.0);
  EXPECT_DOUBLE_EQ(capacity[1], 70.0);
  EXPECT_DOUBLE_EQ(dem[0], 9.0);
  EXPECT_DOUBLE_EQ(dem[1], 1.0);
}

TEST_F(StScoreTest, ScoreZeroWhenCapacityTracksDemand) {
  // Use a route visiting four *distinct* factories so each visit maps to
  // its own STD cell, then make demand proportional to the capacity
  // profile -> JS divergence ~ 0.
  Instance inst = MakeTestInstance({MakeOrder(0, 1, 2, 30.0, 0.0, 500.0),
                                    MakeOrder(1, 3, 4, 20.0, 0.0, 500.0)});
  RoutePlanner planner(&inst);
  const std::vector<Stop> suffix{{1, 0, StopType::kPickup},
                                 {2, 0, StopType::kDelivery},
                                 {3, 1, StopType::kPickup},
                                 {4, 1, StopType::kDelivery}};
  const auto sched = planner.CheckSuffix(PlanAnchor{0, 0.0, {}}, suffix, 0);
  ASSERT_TRUE(sched.ok());
  nn::Matrix demand(4, 144, 0.0);
  for (size_t s = 0; s < suffix.size(); ++s) {
    const int ordinal = inst.network->FactoryOrdinal(suffix[s].node);
    const int interval = TimeIntervalIndex(sched.value().stops[s].arrival,
                                           144, kMinutesPerDay);
    demand(ordinal, interval) = sched.value().residual_capacity[s];
  }
  StScoreScratch scratch;
  EXPECT_NEAR(ComputeStScore(*inst.network, suffix, sched.value(), demand,
                             144, kMinutesPerDay,
                             DivergenceKind::kJensenShannon, &scratch),
              0.0, 1e-6);
}

TEST_F(StScoreTest, MismatchedDemandScoresHigher) {
  nn::Matrix aligned(4, 144, 1.0);
  nn::Matrix skewed(4, 144, 0.0);
  // All predicted demand bunched at the last stop where the vehicle has
  // the least spare story -> larger divergence than uniform demand.
  const int ordinal = inst_.network->FactoryOrdinal(suffix_[1].node);
  const int interval =
      TimeIntervalIndex(schedule_.stops[1].arrival, 144, kMinutesPerDay);
  skewed(ordinal, interval) = 100.0;
  StScoreScratch scratch;
  const double s_uniform =
      ComputeStScore(*inst_.network, suffix_, schedule_, aligned, 144,
                     kMinutesPerDay, DivergenceKind::kJensenShannon, &scratch);
  const double s_skewed =
      ComputeStScore(*inst_.network, suffix_, schedule_, skewed, 144,
                     kMinutesPerDay, DivergenceKind::kJensenShannon, &scratch);
  EXPECT_GT(s_skewed, s_uniform);
}

TEST_F(StScoreTest, EmptyRouteScoresZero) {
  nn::Matrix demand(4, 144, 1.0);
  StScoreScratch scratch;
  EXPECT_DOUBLE_EQ(ComputeStScore(*inst_.network, {}, SuffixSchedule{},
                                  demand, 144, kMinutesPerDay,
                                  DivergenceKind::kJensenShannon, &scratch),
                   0.0);
}

TEST_F(StScoreTest, KlVariantDiffersFromJs) {
  nn::Matrix demand(4, 144, 0.0);
  demand(0, 1) = 50.0;
  demand(1, 2) = 1.0;
  StScoreScratch scratch;
  const double js =
      ComputeStScore(*inst_.network, suffix_, schedule_, demand, 144,
                     kMinutesPerDay, DivergenceKind::kJensenShannon, &scratch);
  const double kl =
      ComputeStScore(*inst_.network, suffix_, schedule_, demand, 144,
                     kMinutesPerDay, DivergenceKind::kSymmetricKl, &scratch);
  EXPECT_GT(js, 0.0);
  EXPECT_GT(kl, js);  // Symmetric KL upper-bounds JS.
}

}  // namespace
}  // namespace dpdp
