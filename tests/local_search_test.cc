#include <gtest/gtest.h>

#include "baselines/greedy_baselines.h"
#include "routing/local_search.h"
#include "sim/environment.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace dpdp {
namespace {

using testing::MakeOrder;
using testing::MakeTestInstance;

Stop P(const Instance& inst, int order) {
  return {inst.order(order).pickup_node, order, StopType::kPickup};
}
Stop D(const Instance& inst, int order) {
  return {inst.order(order).delivery_node, order, StopType::kDelivery};
}

TEST(LocalSearch, ImprovesDeliberatelyBadOrdering) {
  // Orders F1->F2 and F1->F2 again. A bad plan serves them as two separate
  // loops; reinsertion should nest them (saving a whole loop).
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 2000.0),
                        MakeOrder(1, 1, 2, 10.0, 0.0, 2000.0)});
  RoutePlanner planner(&inst);
  const PlanAnchor anchor{0, 0.0, {}};
  const std::vector<Stop> bad{P(inst, 0), D(inst, 0), P(inst, 1),
                              D(inst, 1)};
  // Bad: depot->F1->F2->F1->F2->depot = 10+10+10+10+20 = 60 km.
  const LocalSearchResult r =
      ImproveSuffixByReinsertion(planner, anchor, bad, 0);
  EXPECT_DOUBLE_EQ(r.initial_length, 60.0);
  // Nested: depot->F1->F1->F2->F2->depot = 40 km.
  EXPECT_DOUBLE_EQ(r.final_length, 40.0);
  EXPECT_GT(r.moves_applied, 0);
  EXPECT_DOUBLE_EQ(r.improvement(), 20.0);
  // The improved suffix re-validates.
  EXPECT_TRUE(planner.CheckSuffix(anchor, r.suffix, 0).ok());
}

TEST(LocalSearch, LeavesOptimalRouteAlone) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 2000.0)});
  RoutePlanner planner(&inst);
  const PlanAnchor anchor{0, 0.0, {}};
  const std::vector<Stop> route{P(inst, 0), D(inst, 0)};
  const LocalSearchResult r =
      ImproveSuffixByReinsertion(planner, anchor, route, 0);
  EXPECT_EQ(r.moves_applied, 0);
  EXPECT_DOUBLE_EQ(r.improvement(), 0.0);
  EXPECT_EQ(r.suffix.size(), 2u);
}

TEST(LocalSearch, DoesNotMoveOnboardOrders) {
  // Order 0 is onboard at the anchor (pickup committed); only its delivery
  // is in the suffix and must stay.
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 2000.0),
                        MakeOrder(1, 3, 4, 10.0, 0.0, 2000.0)});
  RoutePlanner planner(&inst);
  const PlanAnchor anchor{1, 20.0, {0}};
  const std::vector<Stop> suffix{D(inst, 0), P(inst, 1), D(inst, 1)};
  const LocalSearchResult r =
      ImproveSuffixByReinsertion(planner, anchor, suffix, 0);
  // Delivery of order 0 must still appear exactly once.
  int deliveries_of_0 = 0;
  for (const Stop& s : r.suffix) {
    deliveries_of_0 +=
        (s.order_id == 0 && s.type == StopType::kDelivery) ? 1 : 0;
  }
  EXPECT_EQ(deliveries_of_0, 1);
  EXPECT_TRUE(planner.CheckSuffix(anchor, r.suffix, 0).ok());
}

TEST(LocalSearch, NeverIncreasesLength) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Order> orders;
    const int n = rng.UniformInt(2, 6);
    for (int i = 0; i < n; ++i) {
      int pickup = rng.UniformInt(1, 4);
      int delivery = rng.UniformInt(1, 4);
      while (delivery == pickup) delivery = rng.UniformInt(1, 4);
      orders.push_back(MakeOrder(i, pickup, delivery,
                                 rng.Uniform(5.0, 30.0), 0.0, 2000.0));
    }
    const Instance inst = MakeTestInstance(orders, 1);
    RoutePlanner planner(&inst);
    const PlanAnchor anchor{0, 0.0, {}};
    // Greedy-construct a route, then improve it.
    std::vector<Stop> route;
    Insertion ins;
    for (int i = 0; i < n; ++i) {
      if (planner.BestInsertion(anchor, route, 0, inst.order(i), &ins)) {
        route = ins.suffix;
      }
    }
    if (route.empty()) continue;
    const LocalSearchResult r =
        ImproveSuffixByReinsertion(planner, anchor, route, 0);
    EXPECT_LE(r.final_length, r.initial_length + 1e-9);
    EXPECT_TRUE(planner.CheckSuffix(anchor, r.suffix, 0).ok());
  }
}

TEST(LocalSearch, SimulatorIntegrationSavesDistance) {
  // Orders interleave so a greedy insertion order leaves slack for
  // improvement; with local search enabled the total cost can only drop.
  std::vector<Order> orders;
  Rng rng(5);
  for (int i = 0; i < 14; ++i) {
    int pickup = rng.UniformInt(1, 4);
    int delivery = rng.UniformInt(1, 4);
    while (delivery == pickup) delivery = rng.UniformInt(1, 4);
    const double t = 15.0 * i;
    orders.push_back(MakeOrder(i, pickup, delivery, 8.0, t, t + 400.0));
  }
  const Instance inst = MakeTestInstance(orders, 3);

  MinIncrementalLengthDispatcher b1;
  SimulatorConfig plain;
  Environment sim_plain(&inst, plain);
  const EpisodeResult without = RunEpisode(&sim_plain, &b1);

  SimulatorConfig with_ls;
  with_ls.local_search_passes = 3;
  Environment sim_ls(&inst, with_ls);
  const EpisodeResult with = RunEpisode(&sim_ls, &b1);

  EXPECT_TRUE(with.all_served());
  EXPECT_GE(with.local_search_km_saved, 0.0);
  EXPECT_DOUBLE_EQ(without.local_search_km_saved, 0.0);
}

}  // namespace
}  // namespace dpdp
