#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "sim/vehicle_state.h"
#include "tests/test_util.h"

namespace dpdp {
namespace {

using testing::MakeOrder;
using testing::MakeTestInstance;

// Line network, 1 km/min, zero service time unless stated otherwise.

PlanAnchor AnchorOf(const VehicleState& v) {
  PlanAnchor anchor;
  v.MakeAnchor(&anchor);
  return anchor;
}

class VehicleStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    inst_ = MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 500.0),
                              MakeOrder(1, 3, 4, 10.0, 0.0, 500.0)});
  }

  Stop P(int order) const {
    return {inst_.order(order).pickup_node, order, StopType::kPickup};
  }
  Stop D(int order) const {
    return {inst_.order(order).delivery_node, order, StopType::kDelivery};
  }

  Instance inst_;
};

TEST_F(VehicleStateTest, FreshVehicleIdleAtDepot) {
  VehicleState v(0, 0, &inst_);
  v.AdvanceTo(100.0);
  EXPECT_FALSE(v.used());
  EXPECT_EQ(v.FirstFreeIndex(), 0);
  EXPECT_TRUE(v.FreeSuffix().empty());
  const PlanAnchor anchor = AnchorOf(v);
  EXPECT_EQ(anchor.node, 0);
  EXPECT_DOUBLE_EQ(anchor.time, 100.0);
  EXPECT_TRUE(anchor.onboard.empty());
  EXPECT_EQ(v.Position().first, 0.0);
  EXPECT_DOUBLE_EQ(v.FinishRoute(), 0.0);  // Never used: no cost.
}

TEST_F(VehicleStateTest, DepartsImmediatelyOnAssignment) {
  VehicleState v(0, 0, &inst_);
  v.AdvanceTo(0.0);
  v.ApplyNewSuffix(std::vector<Stop>{P(0), D(0)}, /*serves_order=*/true);
  EXPECT_TRUE(v.used());
  EXPECT_EQ(v.num_assigned_orders(), 1);
  // En route to F1: the first stop is locked, suffix starts after it.
  EXPECT_EQ(v.FirstFreeIndex(), 1);
  ASSERT_EQ(v.FreeSuffix().size(), 1u);
  EXPECT_TRUE(v.FreeSuffix()[0] == D(0));
}

TEST_F(VehicleStateTest, NewSuffixMustNotViewTheVehiclesOwnStops) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  VehicleState v(0, 0, &inst_);
  v.AdvanceTo(0.0);
  v.ApplyNewSuffix(std::vector<Stop>{P(0), D(0), P(1), D(1)}, true);
  ASSERT_EQ(v.FreeSuffix().size(), 3u);
  EXPECT_DEATH(v.ApplyNewSuffix(v.FreeSuffix(), false), "new_suffix");
  // A copy of the free suffix is fine and leaves the route as it was.
  const std::vector<Stop> copy(v.FreeSuffix().begin(), v.FreeSuffix().end());
  v.ApplyNewSuffix(copy, false);
  ASSERT_EQ(v.FreeSuffix().size(), 3u);
  EXPECT_TRUE(v.FreeSuffix()[0] == D(0));
  EXPECT_TRUE(v.FreeSuffix()[2] == D(1));
  EXPECT_EQ(v.num_assigned_orders(), 1);
}

TEST_F(VehicleStateTest, PositionInterpolatesWhileDriving) {
  VehicleState v(0, 0, &inst_);
  v.AdvanceTo(0.0);
  v.ApplyNewSuffix(std::vector<Stop>{P(0), D(0)}, true);
  v.AdvanceTo(5.0);  // Halfway along depot(0,0) -> F1(10,0).
  const auto pos = v.Position();
  EXPECT_NEAR(pos.first, 5.0, 1e-9);
  EXPECT_NEAR(pos.second, 0.0, 1e-9);
}

TEST_F(VehicleStateTest, AnchorWhileDrivingIsPostStop) {
  VehicleState v(0, 0, &inst_);
  v.AdvanceTo(0.0);
  v.ApplyNewSuffix(std::vector<Stop>{P(0), D(0)}, true);
  v.AdvanceTo(5.0);  // Driving to the pickup.
  const PlanAnchor anchor = AnchorOf(v);
  EXPECT_EQ(anchor.node, 1);            // The locked stop's node.
  EXPECT_DOUBLE_EQ(anchor.time, 10.0);  // Arrival + zero service.
  ASSERT_EQ(anchor.onboard.size(), 1u);  // Pickup applied in the anchor.
  EXPECT_EQ(anchor.onboard[0], 0);
}

TEST_F(VehicleStateTest, ReusedAnchorAndSuffixViewTrackTheRoute) {
  VehicleState v(0, 0, &inst_);
  v.AdvanceTo(0.0);
  v.ApplyNewSuffix(std::vector<Stop>{P(0), D(0)}, true);
  v.AdvanceTo(5.0);  // Driving to P0; D0 is the free suffix.
  // A reused anchor holding a stale stack gets exactly this one's.
  PlanAnchor anchor{4, 99.0, {7, 8, 9}};
  v.MakeAnchor(&anchor);
  EXPECT_EQ(anchor.node, 1);
  EXPECT_DOUBLE_EQ(anchor.time, 10.0);
  EXPECT_EQ(anchor.onboard, std::vector<int>{0});
  ASSERT_EQ(v.FreeSuffix().size(), 1u);
  EXPECT_TRUE(v.FreeSuffix()[0] == D(0));

  // The view is taken afresh after the route changes (the stops may have
  // moved when the route grew).
  v.ApplyNewSuffix(std::vector<Stop>{P(1), D(1), D(0)}, true);
  const std::span<const Stop> suffix = v.FreeSuffix();
  ASSERT_EQ(suffix.size(), 3u);
  EXPECT_TRUE(suffix[0] == P(1));
  EXPECT_TRUE(suffix[2] == D(0));
  EXPECT_EQ(suffix.data(), v.stops().data() + v.FirstFreeIndex());

  v.AdvanceTo(300.0);  // Route done: idle, nothing onboard, empty suffix.
  v.MakeAnchor(&anchor);
  EXPECT_TRUE(anchor.onboard.empty());
  EXPECT_TRUE(v.FreeSuffix().empty());
}

TEST_F(VehicleStateTest, EventsApplyLoadAndVisits) {
  VehicleState v(0, 0, &inst_);
  v.AdvanceTo(0.0);
  v.ApplyNewSuffix(std::vector<Stop>{P(0), D(0)}, true);
  v.AdvanceTo(25.0);  // Past both stops (arrivals at 10 and 20).
  ASSERT_EQ(v.visits().size(), 2u);
  EXPECT_EQ(v.visits()[0].node, 1);
  EXPECT_DOUBLE_EQ(v.visits()[0].arrival, 10.0);
  EXPECT_DOUBLE_EQ(v.visits()[0].residual_capacity, 100.0);
  EXPECT_EQ(v.visits()[1].node, 2);
  EXPECT_DOUBLE_EQ(v.visits()[1].residual_capacity, 90.0);  // Carrying 10.
  EXPECT_EQ(v.FirstFreeIndex(), 2);  // Idle at F2.
}

TEST_F(VehicleStateTest, IdleVehicleAnchorsAtLastStop) {
  VehicleState v(0, 0, &inst_);
  v.AdvanceTo(0.0);
  v.ApplyNewSuffix(std::vector<Stop>{P(0), D(0)}, true);
  v.AdvanceTo(300.0);
  const PlanAnchor anchor = AnchorOf(v);
  EXPECT_EQ(anchor.node, 2);              // Waits at F2.
  EXPECT_DOUBLE_EQ(anchor.time, 300.0);   // Ready now, not at 20.
  EXPECT_TRUE(anchor.onboard.empty());
}

TEST_F(VehicleStateTest, CommittedLengthGrowsPerDepartedArc) {
  VehicleState v(0, 0, &inst_);
  v.AdvanceTo(0.0);
  v.ApplyNewSuffix(std::vector<Stop>{P(0), D(0)}, true);
  EXPECT_DOUBLE_EQ(v.committed_length(), 10.0);  // Departed depot -> F1.
  v.AdvanceTo(10.0);  // Arrive F1, serve, depart to F2.
  EXPECT_DOUBLE_EQ(v.committed_length(), 20.0);
  v.AdvanceTo(25.0);
  EXPECT_DOUBLE_EQ(v.committed_length(), 20.0);  // Idle: no new arcs.
}

TEST_F(VehicleStateTest, FinishRouteAddsReturnLeg) {
  VehicleState v(0, 0, &inst_);
  v.AdvanceTo(0.0);
  v.ApplyNewSuffix(std::vector<Stop>{P(0), D(0)}, true);
  const double total = v.FinishRoute();
  EXPECT_DOUBLE_EQ(total, 10.0 + 10.0 + 20.0);  // Incl. F2 -> depot.
  // Finishing twice is idempotent.
  EXPECT_DOUBLE_EQ(v.FinishRoute(), total);
}

TEST_F(VehicleStateTest, ReplanningKeepsCommittedPrefix) {
  VehicleState v(0, 0, &inst_);
  v.AdvanceTo(0.0);
  v.ApplyNewSuffix(std::vector<Stop>{P(0), D(0)}, true);
  v.AdvanceTo(5.0);  // Driving toward P(0): it is locked.
  // Insert order 1 into the free suffix (after P(0)).
  v.ApplyNewSuffix(std::vector<Stop>{P(1), D(1), D(0)}, true);
  ASSERT_EQ(v.stops().size(), 4u);
  EXPECT_TRUE(v.stops()[0] == P(0));  // Prefix untouched.
  EXPECT_TRUE(v.stops()[1] == P(1));
  EXPECT_EQ(v.num_assigned_orders(), 2);
  // Drain: the route must execute in the new order.
  const double total = v.FinishRoute();
  // depot->F1(10) + F1->F3(10) + F3->F4(10) + F4->F2 (sqrt(500)) +
  // F2->depot(20).
  EXPECT_NEAR(total, 10.0 + 10.0 + 10.0 + std::sqrt(500.0) + 20.0, 1e-9);
}

TEST_F(VehicleStateTest, PickupWaitsForCreationTime) {
  Instance inst = MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 60.0, 500.0)});
  VehicleState v(0, 0, &inst);
  v.AdvanceTo(60.0);
  v.ApplyNewSuffix(std::vector<Stop>{{1, 0, StopType::kPickup}, {2, 0, StopType::kDelivery}},
                   true);
  v.AdvanceTo(70.0);  // Arrived at F1 at 70 and can serve immediately.
  ASSERT_EQ(v.visits().size(), 1u);
  EXPECT_DOUBLE_EQ(v.visits()[0].arrival, 70.0);
  const double total = v.FinishRoute();
  EXPECT_DOUBLE_EQ(total, 40.0);
}

TEST_F(VehicleStateTest, ServiceTimeDelaysDeparture) {
  Instance inst = MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 500.0)});
  inst.vehicle_config.service_time_min = 5.0;
  VehicleState v(0, 0, &inst);
  v.AdvanceTo(0.0);
  v.ApplyNewSuffix(std::vector<Stop>{{1, 0, StopType::kPickup}, {2, 0, StopType::kDelivery}},
                   true);
  v.AdvanceTo(12.0);  // Arrived at 10, serving until 15.
  // Anchor is post-pickup: service end 15 at F1... but the pickup is the
  // stop being served, so the anchor reflects its completion.
  const PlanAnchor anchor = AnchorOf(v);
  EXPECT_EQ(anchor.node, 1);
  EXPECT_DOUBLE_EQ(anchor.time, 15.0);
  v.AdvanceTo(16.0);  // Departed toward F2 at 15.
  EXPECT_NEAR(v.Position().first, 11.0, 1e-9);
}

TEST_F(VehicleStateTest, AdvanceIsMonotoneNoop) {
  VehicleState v(0, 0, &inst_);
  v.AdvanceTo(50.0);
  v.AdvanceTo(50.0);
  EXPECT_DOUBLE_EQ(v.clock(), 50.0);
}

}  // namespace
}  // namespace dpdp
