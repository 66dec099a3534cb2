#include <gtest/gtest.h>

#include "baselines/greedy_baselines.h"
#include "sim/environment.h"
#include "tests/test_util.h"

namespace dpdp {
namespace {

using testing::MakeOrder;
using testing::MakeTestInstance;

/// Hand-builds a DispatchContext with the given options.
DispatchContext MakeContext(std::vector<VehicleOption> options) {
  DispatchContext ctx;
  for (size_t i = 0; i < options.size(); ++i) {
    options[i].vehicle = static_cast<int>(i);
    if (options[i].feasible) ++ctx.num_feasible;
  }
  ctx.options = std::move(options);
  return ctx;
}

VehicleOption Opt(bool feasible, double incremental, double total,
                  int orders) {
  VehicleOption o;
  o.feasible = feasible;
  o.incremental_length = incremental;
  o.new_length = total;
  o.num_assigned_orders = orders;
  o.used = orders > 0;
  return o;
}

TEST(Baseline1, PicksSmallestIncrementalLength) {
  MinIncrementalLengthDispatcher d;
  auto ctx = MakeContext({Opt(true, 12.0, 50.0, 2), Opt(true, 5.0, 90.0, 1),
                          Opt(true, 8.0, 10.0, 0)});
  EXPECT_EQ(d.Act(ctx), 1);
}

TEST(Baseline1, SkipsInfeasibleEvenIfCheapest) {
  MinIncrementalLengthDispatcher d;
  auto ctx = MakeContext({Opt(false, 1.0, 5.0, 0), Opt(true, 9.0, 50.0, 1)});
  EXPECT_EQ(d.Act(ctx), 1);
}

TEST(Baseline1, TieBreaksByLowestIndex) {
  MinIncrementalLengthDispatcher d;
  auto ctx = MakeContext({Opt(true, 7.0, 30.0, 1), Opt(true, 7.0, 20.0, 2)});
  EXPECT_EQ(d.Act(ctx), 0);
}

TEST(Baseline2, PicksSmallestTotalLength) {
  MinTotalLengthDispatcher d;
  auto ctx = MakeContext({Opt(true, 1.0, 80.0, 3), Opt(true, 40.0, 40.0, 0),
                          Opt(true, 10.0, 60.0, 1)});
  EXPECT_EQ(d.Act(ctx), 1);
}

TEST(Baseline3, PicksMostLoadedVehicle) {
  MaxAcceptedOrdersDispatcher d;
  auto ctx = MakeContext({Opt(true, 1.0, 10.0, 2), Opt(true, 9.0, 99.0, 5),
                          Opt(true, 2.0, 20.0, 4)});
  EXPECT_EQ(d.Act(ctx), 1);
}

TEST(Baseline3, TieBreaksByCheapestInsertion) {
  MaxAcceptedOrdersDispatcher d;
  auto ctx = MakeContext({Opt(true, 9.0, 10.0, 3), Opt(true, 2.0, 99.0, 3)});
  EXPECT_EQ(d.Act(ctx), 1);
}

TEST(Baseline3, IgnoresInfeasibleHeavyVehicle) {
  MaxAcceptedOrdersDispatcher d;
  auto ctx = MakeContext({Opt(false, 1.0, 10.0, 9), Opt(true, 5.0, 50.0, 1)});
  EXPECT_EQ(d.Act(ctx), 1);
}

// End-to-end character test: on a day where orders trickle in, baseline 2
// burns more vehicles than baseline 3 (the paper's Fig. 6/7 pattern).
TEST(Baselines, Fig6CharacterOnSyntheticDay) {
  std::vector<Order> orders;
  for (int i = 0; i < 12; ++i) {
    const int pickup = 1 + (i % 4);
    const int delivery = 1 + ((i + 1) % 4);
    const double t = 20.0 * i;
    orders.push_back(
        MakeOrder(i, pickup, delivery, 10.0, t, t + 150.0));
  }
  const Instance inst = MakeTestInstance(orders, /*num_vehicles=*/8);

  auto run = [&](Dispatcher* d) {
    Environment env(&inst);
    return RunEpisode(&env, d);
  };
  MinIncrementalLengthDispatcher b1;
  MinTotalLengthDispatcher b2;
  MaxAcceptedOrdersDispatcher b3;
  const EpisodeResult r1 = run(&b1);
  const EpisodeResult r2 = run(&b2);
  const EpisodeResult r3 = run(&b3);

  EXPECT_TRUE(r1.all_served());
  EXPECT_TRUE(r2.all_served());
  EXPECT_TRUE(r3.all_served());
  // Baseline 2 spreads across fresh vehicles; baseline 3 packs them.
  EXPECT_GE(r2.nuv, r3.nuv);
  // Baseline 1 never pays more total cost than baseline 2 here.
  EXPECT_LE(r1.total_cost, r2.total_cost + 1e-9);
}

}  // namespace
}  // namespace dpdp
