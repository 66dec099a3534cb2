#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "datagen/dataset.h"
#include "exp/harness.h"
#include "routing/route_planner.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace dpdp {
namespace {

using testing::MakeLineNetwork;
using testing::MakeOrder;
using testing::MakeTestInstance;
using testing::MakeTestVehicleConfig;

using Route = std::vector<Stop>;

// The line network with 1 km/min speed and zero service time makes all
// schedule arithmetic exact: depot(0,0), F1(10,0), F2(20,0), F3(10,10),
// F4(0,10).

class RoutePlannerTest : public ::testing::Test {
 protected:
  PlanAnchor DepotAnchor(double time = 0.0) const {
    return PlanAnchor{0, time, {}};
  }

  Stop P(int order, const Instance& inst) const {
    return {inst.order(order).pickup_node, order, StopType::kPickup};
  }
  Stop D(int order, const Instance& inst) const {
    return {inst.order(order).delivery_node, order, StopType::kDelivery};
  }
};

TEST_F(RoutePlannerTest, SimplePickupDeliverySchedule) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 100.0)});
  RoutePlanner planner(&inst);
  const auto r = planner.CheckSuffix(DepotAnchor(),
                                     Route{P(0, inst), D(0, inst)}, 0);
  ASSERT_TRUE(r.ok());
  const SuffixSchedule& s = r.value();
  ASSERT_EQ(s.stops.size(), 2u);
  EXPECT_DOUBLE_EQ(s.stops[0].arrival, 10.0);        // depot -> F1: 10 km.
  EXPECT_DOUBLE_EQ(s.stops[0].service_start, 10.0);  // t_c = 0, no wait.
  EXPECT_DOUBLE_EQ(s.stops[1].arrival, 20.0);        // F1 -> F2: 10 km.
  EXPECT_DOUBLE_EQ(s.length, 10.0 + 10.0 + 20.0);    // ... + F2 -> depot.
  EXPECT_DOUBLE_EQ(s.completion_time, 40.0);
}

TEST_F(RoutePlannerTest, PickupWaitsForOrderCreation) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 50.0, 200.0)});
  RoutePlanner planner(&inst);
  const auto r = planner.CheckSuffix(DepotAnchor(0.0),
                                     Route{P(0, inst), D(0, inst)}, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().stops[0].arrival, 10.0);
  EXPECT_DOUBLE_EQ(r.value().stops[0].service_start, 50.0);  // Waited.
  EXPECT_DOUBLE_EQ(r.value().stops[1].arrival, 60.0);
}

TEST_F(RoutePlannerTest, LateDeliveryIsInfeasible) {
  // Delivery needs 20 minutes driving; deadline at 15.
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 15.0)});
  RoutePlanner planner(&inst);
  const auto r = planner.CheckSuffix(DepotAnchor(),
                                     Route{P(0, inst), D(0, inst)}, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInfeasible);
}

TEST_F(RoutePlannerTest, DeadlineToleranceIsOneNanominute) {
  // The delivery lands at exactly 20.0 min. A deadline that undercuts it
  // by less than the 1e-9 tolerance is met; one that undercuts it by more
  // is late. Both entry points share the same walk.
  for (const auto& [deadline, feasible] :
       {std::pair<double, bool>{20.0 - 5e-10, true},
        std::pair<double, bool>{20.0 - 2e-9, false}}) {
    SCOPED_TRACE(deadline);
    const Instance inst =
        MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, deadline)});
    RoutePlanner planner(&inst);
    const auto checked = planner.CheckSuffix(
        DepotAnchor(), Route{P(0, inst), D(0, inst)}, 0);
    Insertion inserted;
    EXPECT_EQ(checked.ok(), feasible);
    EXPECT_EQ(planner.BestInsertion(DepotAnchor(), {}, 0, inst.order(0),
                                    &inserted),
              feasible);
    if (feasible) {
      EXPECT_EQ(checked.value().stops[1].arrival, 20.0);
      EXPECT_EQ(inserted.schedule.stops[1].arrival, 20.0);
    } else {
      EXPECT_EQ(checked.status().code(), StatusCode::kInfeasible);
      EXPECT_TRUE(inserted.suffix.empty());
    }
  }
}

TEST_F(RoutePlannerTest, LifoRejectsFifoInterleaving) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 500.0),
                        MakeOrder(1, 1, 2, 10.0, 0.0, 500.0)});
  RoutePlanner planner(&inst);
  // P0 P1 D0 D1 delivers the bottom of the stack first: LIFO violation.
  const auto fifo = planner.CheckSuffix(
      DepotAnchor(), Route{P(0, inst), P(1, inst), D(0, inst), D(1, inst)}, 0);
  EXPECT_FALSE(fifo.ok());
  // P0 P1 D1 D0 nests correctly.
  const auto lifo = planner.CheckSuffix(
      DepotAnchor(), Route{P(0, inst), P(1, inst), D(1, inst), D(0, inst)}, 0);
  EXPECT_TRUE(lifo.ok());
}

TEST_F(RoutePlannerTest, CapacityViolationDetected) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 60.0, 0.0, 500.0),
                        MakeOrder(1, 1, 2, 60.0, 0.0, 500.0)});
  RoutePlanner planner(&inst);
  // Both onboard at once: 120 > 100.
  const auto r = planner.CheckSuffix(
      DepotAnchor(), Route{P(0, inst), P(1, inst), D(1, inst), D(0, inst)}, 0);
  EXPECT_FALSE(r.ok());
  // Sequential service fits.
  const auto seq = planner.CheckSuffix(
      DepotAnchor(), Route{P(0, inst), D(0, inst), P(1, inst), D(1, inst)}, 0);
  EXPECT_TRUE(seq.ok());
}

TEST_F(RoutePlannerTest, LeftoverCargoIsInfeasible) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 500.0)});
  RoutePlanner planner(&inst);
  const auto r = planner.CheckSuffix(DepotAnchor(), Route{P(0, inst)}, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInfeasible);
}

TEST_F(RoutePlannerTest, AnchorOnboardMustBeDelivered) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 500.0)});
  RoutePlanner planner(&inst);
  // Vehicle at F1 carrying order 0: delivering it is feasible...
  PlanAnchor anchor{1, 30.0, {0}};
  const auto ok = planner.CheckSuffix(anchor, Route{D(0, inst)}, 0);
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(ok.value().stops[0].arrival, 40.0);
  // ...but an empty suffix leaves it onboard.
  EXPECT_FALSE(planner.CheckSuffix(anchor, {}, 0).ok());
}

TEST_F(RoutePlannerTest, DockingSurchargeAndVehicleProfileShapeSchedule) {
  Instance inst = MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 500.0)});
  inst.node_service_surcharge_min.assign(inst.network->num_nodes(), 0.0);
  inst.node_service_surcharge_min[1] = 7.0;  // Docking wait at F1 only.
  RoutePlanner planner(&inst);
  VehicleConfig slow = inst.vehicle_config;
  slow.speed_kmph = 30.0;  // 2 min per km.
  slow.service_time_min = 3.0;
  const auto r = planner.CheckSuffix(DepotAnchor(),
                                     Route{P(0, inst), D(0, inst)}, 0, &slow);
  ASSERT_TRUE(r.ok());
  const std::vector<StopSchedule>& stops = r.value().stops;
  ASSERT_EQ(stops.size(), 2u);
  // depot -> F1: 10 km = 20 min; service 3 + dock 7 -> depart at 30.
  EXPECT_DOUBLE_EQ(stops[0].arrival, 20.0);
  EXPECT_DOUBLE_EQ(stops[0].departure, 30.0);
  // F1 -> F2: 10 km = 20 min; service 3, no dock at F2.
  EXPECT_DOUBLE_EQ(stops[1].arrival, 50.0);
  EXPECT_DOUBLE_EQ(stops[1].departure, 53.0);
  // F2 -> depot: 20 km = 40 min.
  EXPECT_DOUBLE_EQ(r.value().completion_time, 93.0);

  // The dock pushes the delivery past a deadline it would otherwise meet.
  inst.orders[0].latest_time_min = 45.0;
  EXPECT_FALSE(planner.CheckSuffix(DepotAnchor(), Route{P(0, inst), D(0, inst)},
                                   0, &slow)
                   .ok());
  inst.node_service_surcharge_min[1] = 0.0;
  EXPECT_TRUE(planner.CheckSuffix(DepotAnchor(), Route{P(0, inst), D(0, inst)},
                                  0, &slow)
                  .ok());
}

TEST_F(RoutePlannerTest, ResidualCapacityProfile) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 30.0, 0.0, 500.0),
                        MakeOrder(1, 2, 3, 20.0, 0.0, 500.0)});
  RoutePlanner planner(&inst);
  const auto r = planner.CheckSuffix(
      DepotAnchor(),
      Route{P(0, inst), D(0, inst), P(1, inst), D(1, inst)}, 0);
  ASSERT_TRUE(r.ok());
  // Residual capacity on *arrival*: before any load, after dropping 30, ...
  const std::vector<double>& rc = r.value().residual_capacity;
  ASSERT_EQ(rc.size(), 4u);
  EXPECT_DOUBLE_EQ(rc[0], 100.0);
  EXPECT_DOUBLE_EQ(rc[1], 70.0);
  EXPECT_DOUBLE_EQ(rc[2], 100.0);
  EXPECT_DOUBLE_EQ(rc[3], 80.0);
}

TEST_F(RoutePlannerTest, SuffixLengthIncludesReturnLeg) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 500.0)});
  RoutePlanner planner(&inst);
  EXPECT_DOUBLE_EQ(planner.SuffixLength(DepotAnchor(), {}, 0), 0.0);
  EXPECT_DOUBLE_EQ(
      planner.SuffixLength(DepotAnchor(), Route{P(0, inst), D(0, inst)}, 0),
      40.0);
  // Idle at F2: return leg only.
  EXPECT_DOUBLE_EQ(planner.SuffixLength(PlanAnchor{2, 0.0, {}}, {}, 0),
                   20.0);
}

TEST_F(RoutePlannerTest, BestInsertionIntoEmptyRoute) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 500.0)});
  RoutePlanner planner(&inst);
  Insertion r;
  ASSERT_TRUE(planner.BestInsertion(DepotAnchor(), {}, 0, inst.order(0), &r));
  EXPECT_EQ(r.pickup_pos, 0);
  EXPECT_EQ(r.delivery_pos, 1);
  EXPECT_EQ(r.suffix.size(), 2u);
  EXPECT_DOUBLE_EQ(r.old_length, 0.0);
  EXPECT_DOUBLE_EQ(r.incremental_length, 40.0);
  EXPECT_EQ(planner.last_candidates_evaluated(), 1);
}

TEST_F(RoutePlannerTest, BestInsertionPrefersHitchhiking) {
  // Existing route serves F1 -> F2. A second F1 -> F2 order should nest
  // inside it (zero extra distance) rather than append a second loop.
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 500.0),
                        MakeOrder(1, 1, 2, 10.0, 0.0, 500.0)});
  RoutePlanner planner(&inst);
  const std::vector<Stop> existing{P(0, inst), D(0, inst)};
  Insertion r;
  ASSERT_TRUE(
      planner.BestInsertion(DepotAnchor(), existing, 0, inst.order(1), &r));
  EXPECT_NEAR(r.incremental_length, 0.0, 1e-9);
  EXPECT_EQ(r.suffix.size(), 4u);
}

TEST_F(RoutePlannerTest, BestInsertionRespectsDeadlinePressure) {
  // Order 1 has a tight deadline; inserting its delivery after order 0's
  // detour would be late, so the planner must route it first.
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 3, 4, 10.0, 0.0, 1000.0),
                        MakeOrder(1, 1, 2, 10.0, 0.0, 25.0)});
  RoutePlanner planner(&inst);
  const std::vector<Stop> existing{P(0, inst), D(0, inst)};
  Insertion r;
  ASSERT_TRUE(
      planner.BestInsertion(DepotAnchor(), existing, 0, inst.order(1), &r));
  // Pickup and delivery of order 1 must come before order 0's stops.
  EXPECT_EQ(r.pickup_pos, 0);
  EXPECT_EQ(r.delivery_pos, 1);
}

TEST_F(RoutePlannerTest, BestInsertionInfeasibleWhenNoPlacementWorks) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 5.0)});
  RoutePlanner planner(&inst);
  // A stale insertion in the output is cleared, never left behind.
  Insertion r;
  r.suffix = {P(0, inst), D(0, inst)};
  r.schedule.stops.resize(2);
  r.schedule.residual_capacity = {100.0, 90.0};
  r.pickup_pos = 0;
  EXPECT_FALSE(planner.BestInsertion(DepotAnchor(), {}, 0, inst.order(0), &r));
  EXPECT_TRUE(r.suffix.empty());
  EXPECT_TRUE(r.schedule.stops.empty());
  EXPECT_TRUE(r.schedule.residual_capacity.empty());
  EXPECT_EQ(r.pickup_pos, -1);
}

TEST_F(RoutePlannerTest, CandidateCountIsQuadratic) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 1.0, 0.0, 5000.0),
                        MakeOrder(1, 1, 2, 1.0, 0.0, 5000.0),
                        MakeOrder(2, 3, 4, 1.0, 0.0, 5000.0)});
  RoutePlanner planner(&inst);
  const std::vector<Stop> existing{P(0, inst), D(0, inst), P(1, inst),
                                   D(1, inst)};
  Insertion r;
  (void)planner.BestInsertion(DepotAnchor(), existing, 0, inst.order(2), &r);
  // n = 4 old stops: (n+1)(n+2)/2 = 15 candidate placements.
  EXPECT_EQ(planner.last_candidates_evaluated(), 15);
}

// --------------------------------------------------- Property sweeps ------

struct SweepParam {
  uint64_t seed;
  int num_existing_orders;
};

class InsertionPropertyTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(InsertionPropertyTest, BestInsertionInvariants) {
  const SweepParam param = GetParam();
  Rng rng(param.seed);

  // Random orders among the four factories with generous windows.
  std::vector<Order> orders;
  const int total = param.num_existing_orders + 1;
  for (int i = 0; i < total; ++i) {
    int pickup = rng.UniformInt(1, 4);
    int delivery = rng.UniformInt(1, 4);
    while (delivery == pickup) delivery = rng.UniformInt(1, 4);
    orders.push_back(MakeOrder(i, pickup, delivery,
                               rng.Uniform(5.0, 40.0), rng.Uniform(0, 200),
                               rng.Uniform(400, 1200)));
  }
  Instance inst = MakeTestInstance(orders, 1);

  // Build an existing route by repeated best insertion.
  RoutePlanner planner(&inst);
  const PlanAnchor anchor{0, 0.0, {}};
  std::vector<Stop> route;
  Insertion ins;
  for (int i = 0; i < param.num_existing_orders; ++i) {
    // Skip orders that cannot fit.
    if (planner.BestInsertion(anchor, route, 0, inst.order(i), &ins)) {
      route = ins.suffix;
    }
  }

  const Order& new_order = inst.order(total - 1);
  const double old_length = planner.SuffixLength(anchor, route, 0);
  // Infeasibility is a legal outcome.
  if (!planner.BestInsertion(anchor, route, 0, new_order, &ins)) return;

  // Invariant 1: the returned suffix re-validates.
  const auto recheck = planner.CheckSuffix(anchor, ins.suffix, 0);
  ASSERT_TRUE(recheck.ok());
  EXPECT_NEAR(recheck.value().length, ins.schedule.length, 1e-9);

  // Invariant 2: exactly two stops added, pickup before delivery.
  EXPECT_EQ(ins.suffix.size(), route.size() + 2);
  EXPECT_LT(ins.pickup_pos, ins.delivery_pos);
  EXPECT_EQ(ins.suffix[ins.pickup_pos].order_id, new_order.id);
  EXPECT_EQ(ins.suffix[ins.delivery_pos].order_id, new_order.id);

  // Invariant 3: with metric (Euclidean) distances a detour cannot shorten
  // the route.
  EXPECT_GE(ins.incremental_length, -1e-9);
  EXPECT_EQ(ins.old_length, old_length);
  EXPECT_NEAR(ins.incremental_length, ins.schedule.length - old_length,
              1e-9);

  // Invariant 4: schedule times are monotone along the route.
  for (size_t s = 0; s < ins.schedule.stops.size(); ++s) {
    const StopSchedule& st = ins.schedule.stops[s];
    EXPECT_LE(st.arrival, st.service_start + 1e-9);
    EXPECT_LE(st.service_start, st.departure + 1e-9);
    if (s > 0) {
      EXPECT_LE(ins.schedule.stops[s - 1].departure, st.arrival + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedSweep, InsertionPropertyTest,
    ::testing::Values(SweepParam{1, 0}, SweepParam{2, 1}, SweepParam{3, 2},
                      SweepParam{4, 3}, SweepParam{5, 4}, SweepParam{6, 5},
                      SweepParam{7, 6}, SweepParam{8, 8}, SweepParam{9, 10},
                      SweepParam{10, 12}, SweepParam{11, 3},
                      SweepParam{12, 5}, SweepParam{13, 7},
                      SweepParam{14, 9}, SweepParam{15, 11}));

// ------------------------------------- Differential vs. the reference ------

// The enumerator BestInsertion replaced, kept as the slow, obviously correct
// reference: materializes every (i, j) candidate, schedules it with
// CheckSuffix and keeps the first strict minimum.
struct ReferenceResult {
  Result<Insertion> insertion = Status::Infeasible("no feasible insertion");
  int candidates = 0;
  int tied = 0;  ///< Feasible candidates exactly as short as the winner.
  int late = 0;  ///< Candidates rejected for a missed deadline.
  int lifo = 0;
  int capacity = 0;
};

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.compare(0, prefix.size(), prefix) == 0;
}

ReferenceResult ReferenceBestInsertion(const RoutePlanner& planner,
                                       const PlanAnchor& anchor,
                                       const std::vector<Stop>& old_suffix,
                                       int depot_node, const Order& order,
                                       const VehicleConfig* vehicle) {
  const int n = static_cast<int>(old_suffix.size());
  const Stop pickup{order.pickup_node, order.id, StopType::kPickup};
  const Stop delivery{order.delivery_node, order.id, StopType::kDelivery};
  ReferenceResult out;
  Insertion best;
  double best_length = std::numeric_limits<double>::infinity();
  for (int i = 0; i <= n; ++i) {
    for (int j = i + 1; j <= n + 1; ++j) {
      std::vector<Stop> candidate(old_suffix.begin(), old_suffix.begin() + i);
      candidate.push_back(pickup);
      candidate.insert(candidate.end(), old_suffix.begin() + i,
                       old_suffix.begin() + (j - 1));
      candidate.push_back(delivery);
      candidate.insert(candidate.end(), old_suffix.begin() + (j - 1),
                       old_suffix.end());
      ++out.candidates;
      Result<SuffixSchedule> checked =
          planner.CheckSuffix(anchor, candidate, depot_node, vehicle);
      if (!checked.ok()) {
        const std::string& why = checked.status().message();
        out.late += StartsWith(why, "late delivery") ? 1 : 0;
        out.lifo += StartsWith(why, "LIFO violation") ? 1 : 0;
        out.capacity += StartsWith(why, "capacity exceeded") ? 1 : 0;
        continue;
      }
      const double length = checked.value().length;
      if (length == best_length) ++out.tied;
      if (length < best_length) {
        best_length = length;
        out.tied = 1;
        best.pickup_pos = i;
        best.delivery_pos = j;
        best.suffix = candidate;
        best.schedule = std::move(checked).value();
      }
    }
  }
  if (out.tied > 0) {
    best.old_length = planner.SuffixLength(anchor, old_suffix, depot_node);
    best.incremental_length = best.schedule.length - best.old_length;
    out.insertion = std::move(best);
  }
  return out;
}

// What a sweep exercised, so a generator change cannot quietly turn it
// into a sweep of trivial cases.
struct DifferentialCoverage {
  int cases = 0;
  int feasible = 0;
  int tied = 0;  ///< Feasible cases whose winner had an equal-length rival.
  int onboard = 0;
  int surcharged = 0;
  int hetero = 0;
  int long_routes = 0;  ///< Old suffix of at least 30 stops.
  int late = 0;
  int lifo = 0;
  int capacity = 0;
};

// One seeded case: an anchor with 0-3 onboard orders, a route of up to 20
// existing orders built by best insertion, optionally tightened so that
// some deliveries are due exactly when the route serves them and the
// capacity barely exceeds the route's peak load, a docking surcharge on
// some factories and a vehicle profile with its own speed, capacity and
// service time. BestInsertion must reproduce the reference bit for bit,
// writing into `reused`, which still holds the previous case's insertion.
void RunDifferentialCase(const std::shared_ptr<const RoadNetwork>& network,
                         const VehicleConfig& shared, uint64_t seed,
                         Insertion* reused, DifferentialCoverage* coverage) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  Rng rng(seed);
  const std::vector<int>& factories = network->factory_ids();
  const int num_factories = static_cast<int>(factories.size());
  const int depot = network->depot_ids()[rng.UniformInt(
      static_cast<int>(network->depot_ids().size()))];
  const int num_onboard = rng.Bernoulli(0.4) ? rng.UniformInt(1, 3) : 0;
  const int num_existing = rng.UniformInt(0, 20);
  const int total = num_onboard + num_existing + 1;

  Instance inst;
  inst.name = "differential";
  inst.network = network;
  inst.vehicle_config = shared;
  inst.vehicle_depots = {depot};
  for (int o = 0; o < total; ++o) {
    const int pickup = factories[rng.UniformInt(num_factories)];
    int delivery = pickup;
    while (delivery == pickup) {
      delivery = factories[rng.UniformInt(num_factories)];
    }
    const double create = rng.Uniform(0.0, 240.0);
    inst.orders.push_back(MakeOrder(o, pickup, delivery,
                                    rng.Uniform(5.0, 30.0), create,
                                    create + rng.Uniform(120.0, 900.0)));
  }
  CanonicalizeOrders(&inst.orders);
  if (rng.Bernoulli(0.5)) {
    inst.node_service_surcharge_min.assign(network->num_nodes(), 0.0);
    for (int f : factories) {
      if (rng.Bernoulli(0.3)) {
        inst.node_service_surcharge_min[f] = rng.UniformInt(1, 8);
      }
    }
  }
  VehicleConfig hetero = shared;
  const bool use_hetero = rng.Bernoulli(0.5);
  if (use_hetero) {
    hetero.speed_kmph = shared.speed_kmph * 0.75;
    hetero.capacity = rng.Uniform(60.0, 150.0);
    hetero.service_time_min = shared.service_time_min + 2.0;
  }
  VehicleConfig& cfg = use_hetero ? hetero : inst.vehicle_config;
  const VehicleConfig* vehicle = use_hetero ? &hetero : nullptr;

  // Roles: onboard cargo (stack bottom first), the route's orders, the new
  // order last.
  std::vector<int> ids(total);
  std::iota(ids.begin(), ids.end(), 0);
  rng.Shuffle(&ids);
  const PlanAnchor anchor{rng.UniformInt(network->num_nodes()),
                          rng.Uniform(0.0, 120.0),
                          {ids.begin(), ids.begin() + num_onboard}};
  const int new_id = ids.back();

  RoutePlanner planner(&inst);
  std::vector<Stop> route;
  for (auto it = anchor.onboard.rbegin(); it != anchor.onboard.rend(); ++it) {
    route.push_back({inst.order(*it).delivery_node, *it,
                     StopType::kDelivery});
  }
  Insertion built;
  for (int e = 0; e < num_existing; ++e) {
    if (planner.BestInsertion(anchor, route, depot,
                              inst.order(ids[num_onboard + e]), &built,
                              vehicle)) {
      route = built.suffix;
    }
  }

  const auto schedule = planner.CheckSuffix(anchor, route, depot, vehicle);
  if (schedule.ok() && rng.Bernoulli(0.5)) {
    for (size_t s = 0; s < route.size(); ++s) {
      if (route[s].type != StopType::kDelivery || !rng.Bernoulli(0.6)) {
        continue;
      }
      inst.orders[route[s].order_id].latest_time_min =
          schedule.value().stops[s].service_start +
          (rng.Bernoulli(0.5) ? 0.0 : rng.Uniform(0.0, 20.0));
    }
  }
  if (schedule.ok() && rng.Bernoulli(0.5)) {
    // Peak load, summed in the planner's order so the tightened capacity
    // still admits the route exactly.
    double load = 0.0;
    for (int id : anchor.onboard) load += inst.order(id).quantity;
    double peak = load;
    for (const Stop& stop : route) {
      const double q = inst.order(stop.order_id).quantity;
      load = stop.type == StopType::kPickup ? load + q : load - q;
      peak = std::max(peak, load);
    }
    cfg.capacity = peak + rng.Uniform(0.0, 1.5 * inst.order(new_id).quantity);
  }
  if (rng.Bernoulli(0.4)) {
    inst.orders[new_id].latest_time_min =
        inst.orders[new_id].create_time_min + rng.Uniform(5.0, 60.0);
  }
  const Order& order = inst.order(new_id);

  const ReferenceResult expected =
      ReferenceBestInsertion(planner, anchor, route, depot, order, vehicle);
  const bool feasible =
      planner.BestInsertion(anchor, route, depot, order, reused, vehicle);

  ++coverage->cases;
  coverage->onboard += num_onboard > 0 ? 1 : 0;
  coverage->surcharged += inst.node_service_surcharge_min.empty() ? 0 : 1;
  coverage->hetero += use_hetero ? 1 : 0;
  coverage->long_routes += route.size() >= 30 ? 1 : 0;
  coverage->late += expected.late;
  coverage->lifo += expected.lifo;
  coverage->capacity += expected.capacity;

  EXPECT_EQ(planner.last_candidates_evaluated(), expected.candidates);
  ASSERT_EQ(feasible, expected.insertion.ok());
  const Insertion& got = *reused;
  if (!feasible) {
    EXPECT_EQ(got.pickup_pos, -1);
    EXPECT_TRUE(got.suffix.empty());
    EXPECT_TRUE(got.schedule.stops.empty());
    EXPECT_TRUE(got.schedule.residual_capacity.empty());
    return;
  }
  ++coverage->feasible;
  coverage->tied += expected.tied > 1 ? 1 : 0;
  const Insertion& want = expected.insertion.value();
  EXPECT_EQ(got.pickup_pos, want.pickup_pos);
  EXPECT_EQ(got.delivery_pos, want.delivery_pos);
  EXPECT_EQ(got.suffix, want.suffix);
  ASSERT_EQ(got.schedule.stops.size(), want.schedule.stops.size());
  for (size_t s = 0; s < want.schedule.stops.size(); ++s) {
    EXPECT_EQ(got.schedule.stops[s].arrival, want.schedule.stops[s].arrival);
    EXPECT_EQ(got.schedule.stops[s].service_start,
              want.schedule.stops[s].service_start);
    EXPECT_EQ(got.schedule.stops[s].departure,
              want.schedule.stops[s].departure);
  }
  EXPECT_EQ(got.schedule.residual_capacity, want.schedule.residual_capacity);
  EXPECT_EQ(got.schedule.length, want.schedule.length);
  EXPECT_EQ(got.schedule.completion_time, want.schedule.completion_time);
  EXPECT_EQ(got.old_length, want.old_length);
  EXPECT_EQ(got.incremental_length, want.incremental_length);
}

void ExpectBroadCoverage(const DifferentialCoverage& c) {
  EXPECT_GT(c.feasible, c.cases / 4);
  EXPECT_GT(c.cases - c.feasible, 0);
  EXPECT_GT(c.onboard, 0);
  EXPECT_GT(c.surcharged, 0);
  EXPECT_GT(c.hetero, 0);
  EXPECT_GT(c.long_routes, 0);
  EXPECT_GT(c.late, 0);
  EXPECT_GT(c.lifo, 0);
  EXPECT_GT(c.capacity, 0);
}

// Exact arithmetic on the line network makes many equal-length candidates,
// so this sweep pins the first-minimum tie-break.
TEST(BestInsertionDifferential, MatchesReferenceOnLineNetwork) {
  const std::shared_ptr<const RoadNetwork> network = MakeLineNetwork();
  DifferentialCoverage coverage;
  Insertion reused;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    RunDifferentialCase(network, MakeTestVehicleConfig(), seed, &reused,
                        &coverage);
  }
  ExpectBroadCoverage(coverage);
  EXPECT_GT(coverage.tied, 0);
}

// Irrational campus distances: lengths and times accumulate rounding, so
// this sweep pins the order of the floating-point operations.
TEST(BestInsertionDifferential, MatchesReferenceOnDatasetCampus) {
  const DpdpDataset dataset(StandardDatasetConfig(7, 620.0));
  DifferentialCoverage coverage;
  Insertion reused;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    RunDifferentialCase(dataset.network(), dataset.config().vehicle, seed,
                        &reused, &coverage);
  }
  ExpectBroadCoverage(coverage);
}

}  // namespace
}  // namespace dpdp
