#include <gtest/gtest.h>

#include "baselines/greedy_baselines.h"
#include "datagen/dataset.h"
#include "exact/bnb_solver.h"
#include "exp/harness.h"
#include "routing/route_planner.h"
#include "sim/environment.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace dpdp {
namespace {

using testing::MakeOrder;
using testing::MakeTestInstance;

TEST(ExactSolver, SingleOrderOptimalCost) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 400.0)}, 2);
  BranchAndBoundSolver solver(&inst, {});
  const ExactSolution sol = solver.Solve();
  ASSERT_TRUE(sol.found);
  EXPECT_TRUE(sol.optimal);
  EXPECT_DOUBLE_EQ(sol.nuv, 1.0);
  // depot -> F1 -> F2 -> depot = 10 + 10 + 20 km.
  EXPECT_DOUBLE_EQ(sol.total_travel_length, 40.0);
  EXPECT_DOUBLE_EQ(sol.total_cost, 300.0 + 80.0);
  ASSERT_EQ(sol.routes.size(), 1u);
  EXPECT_EQ(sol.routes[0].size(), 2u);
}

TEST(ExactSolver, PrefersHitchhikingOverSecondVehicle) {
  // Two identical F1 -> F2 orders: one vehicle nests them (LIFO) for zero
  // extra distance, saving the 300 fixed cost.
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 400.0),
                        MakeOrder(1, 1, 2, 10.0, 0.0, 400.0)},
                       2);
  BranchAndBoundSolver solver(&inst, {});
  const ExactSolution sol = solver.Solve();
  ASSERT_TRUE(sol.found);
  EXPECT_DOUBLE_EQ(sol.nuv, 1.0);
  EXPECT_DOUBLE_EQ(sol.total_travel_length, 40.0);
}

TEST(ExactSolver, TightWindowsForceSecondVehicle) {
  // Orders in opposite corners with deadlines that one vehicle cannot
  // chain.
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 25.0),
                        MakeOrder(1, 4, 3, 10.0, 0.0, 25.0)},
                       2);
  BranchAndBoundSolver solver(&inst, {});
  const ExactSolution sol = solver.Solve();
  ASSERT_TRUE(sol.found);
  EXPECT_DOUBLE_EQ(sol.nuv, 2.0);
}

TEST(ExactSolver, RespectsCapacity) {
  // Two 60-unit orders cannot share the truck at once; nesting violates
  // capacity so the solver must serialize or split.
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 60.0, 0.0, 2000.0),
                        MakeOrder(1, 1, 2, 60.0, 0.0, 2000.0)},
                       2);
  BranchAndBoundSolver solver(&inst, {});
  const ExactSolution sol = solver.Solve();
  ASSERT_TRUE(sol.found);
  // One vehicle serving sequentially: 10 + 10 + 10 + 10 + 20 = 60 km
  // beats two vehicles (40 km each + extra 300 fixed).
  EXPECT_DOUBLE_EQ(sol.nuv, 1.0);
  EXPECT_DOUBLE_EQ(sol.total_travel_length, 60.0);
}

TEST(ExactSolver, InfeasibleInstanceReportsNotFound) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 5.0)}, 2);
  BranchAndBoundSolver solver(&inst, {});
  const ExactSolution sol = solver.Solve();
  EXPECT_FALSE(sol.found);
}

TEST(ExactSolver, EmptyInstanceTriviallyOptimal) {
  Instance inst = MakeTestInstance({}, 2);
  BranchAndBoundSolver solver(&inst, {});
  const ExactSolution sol = solver.Solve();
  EXPECT_TRUE(sol.found);
  EXPECT_TRUE(sol.optimal);
  EXPECT_DOUBLE_EQ(sol.total_cost, 0.0);
}

TEST(ExactSolver, SolutionRoutesAreFeasible) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 30.0, 0.0, 300.0),
                        MakeOrder(1, 3, 4, 20.0, 30.0, 300.0),
                        MakeOrder(2, 2, 3, 15.0, 60.0, 400.0)},
                       3);
  BranchAndBoundSolver solver(&inst, {});
  const ExactSolution sol = solver.Solve();
  ASSERT_TRUE(sol.found);
  ASSERT_EQ(sol.routes.size(), sol.route_depots.size());
  // Re-validate every route with the route planner (time windows checked
  // with departure at time 0 from the route's depot).
  RoutePlanner planner(&inst);
  int orders_covered = 0;
  for (size_t r = 0; r < sol.routes.size(); ++r) {
    const PlanAnchor anchor{sol.route_depots[r], 0.0, {}};
    const auto check =
        planner.CheckSuffix(anchor, sol.routes[r], sol.route_depots[r]);
    EXPECT_TRUE(check.ok()) << check.status();
    for (const Stop& s : sol.routes[r]) {
      orders_covered += (s.type == StopType::kPickup);
    }
  }
  EXPECT_EQ(orders_covered, inst.num_orders());
}

TEST(ExactSolver, NodeLimitTerminatesSearch) {
  // A 27-factory campus gives the search a genuinely large space (the
  // tiny line network above is closed instantly by the lower bound).
  DpdpDataset dataset(StandardDatasetConfig(5, 400.0));
  const Instance inst = dataset.SampleInstance("limit", 14, 5, 0, 0, 3);
  ExactSolverConfig config;
  config.node_limit = 5000;
  BranchAndBoundSolver solver(&inst, config);
  const ExactSolution sol = solver.Solve();
  EXPECT_LE(sol.nodes_explored, config.node_limit + 16384);
  EXPECT_FALSE(sol.optimal);  // Aborted before exhausting the space.
}

// ---------------------- optimality property sweep -------------------------

class ExactPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExactPropertyTest, ExactNeverWorseThanGreedyHeuristics) {
  Rng rng(GetParam());
  std::vector<Order> orders;
  const int n = rng.UniformInt(2, 5);
  for (int i = 0; i < n; ++i) {
    int pickup = rng.UniformInt(1, 4);
    int delivery = rng.UniformInt(1, 4);
    while (delivery == pickup) delivery = rng.UniformInt(1, 4);
    const double t = rng.Uniform(0.0, 300.0);
    orders.push_back(MakeOrder(i, pickup, delivery, rng.Uniform(5.0, 40.0),
                               t, t + rng.Uniform(120.0, 500.0)));
  }
  const Instance inst = MakeTestInstance(orders, 3);

  ExactSolverConfig config;
  config.time_limit_seconds = 20.0;
  BranchAndBoundSolver solver(&inst, config);
  const ExactSolution sol = solver.Solve();

  MinIncrementalLengthDispatcher b1;
  Environment env(&inst);
  const EpisodeResult greedy = RunEpisode(&env, &b1);

  if (!greedy.all_served()) return;  // Window too tight for the heuristic.
  ASSERT_TRUE(sol.found);
  ASSERT_TRUE(sol.optimal);
  // The exact optimum (with full future knowledge) can never lose to an
  // online greedy heuristic.
  EXPECT_LE(sol.total_cost, greedy.total_cost + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomTinyInstances, ExactPropertyTest,
                         ::testing::Range<uint64_t>(200, 215));

}  // namespace
}  // namespace dpdp
