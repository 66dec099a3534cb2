// Tests for the brute-force feasibility oracle itself (tests/test_util.h)
// plus its end-to-end application: every route the simulator executes must
// satisfy LIFO, capacity, time-window and return-to-depot constraints.
//
// The oracle is an independent re-implementation of the Sec. III rules, so
// these tests first prove it *rejects* each constraint violation (a broken
// oracle that accepts everything would make the end-to-end checks
// meaningless), then run it over real simulated episodes.

#include <vector>

#include "baselines/greedy_baselines.h"
#include "exp/harness.h"
#include "gtest/gtest.h"
#include "sim/environment.h"
#include "stpred/predictor.h"
#include "tests/test_util.h"

namespace dpdp {
namespace {

using dpdp::testing::CheckEpisodeFeasible;
using dpdp::testing::CheckRouteFeasible;
using dpdp::testing::MakeOrder;
using dpdp::testing::MakeTestInstance;

Stop Pickup(const Order& o) {
  return Stop{o.pickup_node, o.id, StopType::kPickup};
}
Stop Delivery(const Order& o) {
  return Stop{o.delivery_node, o.id, StopType::kDelivery};
}

// Line world reminder (test_util.h): depot 0 at (0,0), F1 at (10,0),
// F2 at (20,0), F3 at (10,10), F4 at (0,10); 1 km/min, zero service time.

TEST(FeasibilityOracle, EmptyRouteIsFeasible) {
  const Instance inst = MakeTestInstance({});
  EXPECT_TRUE(CheckRouteFeasible(inst, 0, {}));
}

TEST(FeasibilityOracle, AcceptsSimpleFeasibleRoute) {
  // F1 -> F2 pickup/delivery: 10 km to F1, 10 km more to F2, arrive at 20
  // min, well before the 100-min deadline.
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 40.0, 0.0, 100.0)});
  const Order& o = inst.order(0);
  EXPECT_TRUE(CheckRouteFeasible(inst, 0, {Pickup(o), Delivery(o)}));
}

TEST(FeasibilityOracle, AcceptsNestedLifoRoute) {
  // Pickup 0, pickup 1, deliver 1, deliver 0 — properly nested.
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 4, 30.0, 0.0, 500.0),
                        MakeOrder(1, 2, 3, 30.0, 0.0, 500.0)});
  const Order& a = inst.order(0);
  const Order& b = inst.order(1);
  EXPECT_TRUE(CheckRouteFeasible(
      inst, 0, {Pickup(a), Pickup(b), Delivery(b), Delivery(a)}));
}

TEST(FeasibilityOracle, RejectsFifoInterleaving) {
  // Pickup 0, pickup 1, deliver 0 — order 0 is *below* order 1 on the
  // stack, so unloading it first violates LIFO.
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 4, 30.0, 0.0, 500.0),
                        MakeOrder(1, 2, 3, 30.0, 0.0, 500.0)});
  const Order& a = inst.order(0);
  const Order& b = inst.order(1);
  const ::testing::AssertionResult r = CheckRouteFeasible(
      inst, 0, {Pickup(a), Pickup(b), Delivery(a), Delivery(b)});
  EXPECT_FALSE(r);
  EXPECT_NE(std::string(r.message()).find("LIFO"), std::string::npos);
}

TEST(FeasibilityOracle, RejectsCapacityOverflow) {
  // Two 60-unit orders on board at once exceeds Q = 100.
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 4, 60.0, 0.0, 500.0),
                        MakeOrder(1, 2, 3, 60.0, 0.0, 500.0)});
  const Order& a = inst.order(0);
  const Order& b = inst.order(1);
  const ::testing::AssertionResult r = CheckRouteFeasible(
      inst, 0, {Pickup(a), Pickup(b), Delivery(b), Delivery(a)});
  EXPECT_FALSE(r);
  EXPECT_NE(std::string(r.message()).find("capacity"), std::string::npos);
  // Sequentially (one at a time) the same two orders fit fine.
  EXPECT_TRUE(CheckRouteFeasible(
      inst, 0, {Pickup(a), Delivery(a), Pickup(b), Delivery(b)}));
}

TEST(FeasibilityOracle, RejectsMissedDeadline) {
  // Even the earliest replay reaches F2 at minute 20; deadline 15 is
  // unmeetable by any schedule of this stop sequence.
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 40.0, 0.0, 15.0)});
  const Order& o = inst.order(0);
  const ::testing::AssertionResult r =
      CheckRouteFeasible(inst, 0, {Pickup(o), Delivery(o)});
  EXPECT_FALSE(r);
  EXPECT_NE(std::string(r.message()).find("deadline"), std::string::npos);
}

TEST(FeasibilityOracle, WaitsForOrderCreationBeforePickup) {
  // The order only exists at minute 60; the vehicle arrives at F1 at 10,
  // waits 50 minutes, and delivers at F2 at 70 — feasible with deadline
  // 80, infeasible with 65 (the wait is not optional).
  const Instance feasible =
      MakeTestInstance({MakeOrder(0, 1, 2, 40.0, 60.0, 80.0)});
  const Order& a = feasible.order(0);
  EXPECT_TRUE(CheckRouteFeasible(feasible, 0, {Pickup(a), Delivery(a)}));

  const Instance infeasible =
      MakeTestInstance({MakeOrder(0, 1, 2, 40.0, 60.0, 65.0)});
  const Order& b = infeasible.order(0);
  EXPECT_FALSE(CheckRouteFeasible(infeasible, 0, {Pickup(b), Delivery(b)}));
}

TEST(FeasibilityOracle, RejectsUndeliveredOnboardOrder) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 40.0, 0.0, 500.0)});
  const Order& o = inst.order(0);
  const ::testing::AssertionResult r =
      CheckRouteFeasible(inst, 0, {Pickup(o)});
  EXPECT_FALSE(r);
  EXPECT_NE(std::string(r.message()).find("undelivered"), std::string::npos);
}

TEST(FeasibilityOracle, RejectsDeliveryWithoutPickup) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 40.0, 0.0, 500.0)});
  const Order& o = inst.order(0);
  EXPECT_FALSE(CheckRouteFeasible(inst, 0, {Delivery(o)}));
}

TEST(FeasibilityOracle, RejectsStopAtWrongNode) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 40.0, 0.0, 500.0)});
  const Order& o = inst.order(0);
  // Pickup recorded at the delivery node.
  EXPECT_FALSE(CheckRouteFeasible(
      inst, 0, {Stop{o.delivery_node, o.id, StopType::kPickup}, Delivery(o)}));
}

// ------------------------------------------- end-to-end over simulator --

// Runs one recorded episode per baseline dispatcher on a sampled campus
// instance and feeds every executed route through the oracle.
TEST(FeasibilityOracle, SimulatedBaselineEpisodesAreFeasible) {
  DpdpDataset dataset(StandardDatasetConfig(3, 80.0));
  const Instance inst = dataset.SampleInstance("oracle", 30, 8, 0, 2, 5);
  SimulatorConfig config;
  config.record_plan = true;

  MinIncrementalLengthDispatcher b1;
  MinTotalLengthDispatcher b2;
  MaxAcceptedOrdersDispatcher b3;
  for (Dispatcher* dispatcher :
       std::vector<Dispatcher*>{&b1, &b2, &b3}) {
    Environment env(&inst, config);
    const EpisodeResult result = RunEpisode(&env, dispatcher);
    EXPECT_TRUE(CheckEpisodeFeasible(inst, result)) << dispatcher->name();
  }
}

TEST(FeasibilityOracle, SimulatedDrlEpisodeIsFeasible) {
  DpdpDataset dataset(StandardDatasetConfig(3, 60.0));
  const Instance inst = dataset.SampleInstance("oracle-drl", 15, 5, 0, 2, 6);
  AverageStdPredictor predictor;
  const nn::Matrix predicted = predictor.Predict(dataset.History(3, 2)).value();

  // An untrained epsilon-greedy agent takes near-random feasible actions —
  // a good adversarial driver for the oracle.
  auto agent = MakeAgentByName("ST-DDGN", /*seed=*/9);
  SimulatorConfig config;
  config.predicted_std = predicted;
  config.record_plan = true;
  Environment env(&inst, config);
  agent->set_training(true);
  for (int episode = 0; episode < 3; ++episode) {
    const EpisodeResult result = RunEpisode(&env, agent.get());
    agent->Learn(result);
    EXPECT_TRUE(CheckEpisodeFeasible(inst, result)) << "episode " << episode;
  }
}

TEST(FeasibilityOracle, CatchesTamperedAssignment) {
  // Guards the consistency check: corrupting OA must be detected.
  DpdpDataset dataset(StandardDatasetConfig(3, 80.0));
  const Instance inst = dataset.SampleInstance("tamper", 20, 6, 0, 2, 5);
  SimulatorConfig config;
  config.record_plan = true;
  MinIncrementalLengthDispatcher b1;
  Environment env(&inst, config);
  EpisodeResult result = RunEpisode(&env, &b1);
  ASSERT_TRUE(CheckEpisodeFeasible(inst, result));

  ASSERT_FALSE(result.order_assignment.empty());
  result.order_assignment[0] =
      (result.order_assignment[0] + 1) % inst.num_vehicles();
  EXPECT_FALSE(CheckEpisodeFeasible(inst, result));
}

}  // namespace
}  // namespace dpdp
