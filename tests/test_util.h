#ifndef DPDP_TESTS_TEST_UTIL_H_
#define DPDP_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "model/instance.h"
#include "model/order.h"
#include "model/vehicle.h"
#include "net/road_network.h"
#include "rl/config.h"
#include "rl/dqn_agent.h"
#include "sim/dispatcher.h"

namespace dpdp::testing {

/// A tiny hand-checkable world: one depot at the origin and four factories
/// on a 10 km line / square, Euclidean distances (road factor 1.0).
///
///   depot(0) at (0, 0)
///   F1(1) at (10, 0), F2(2) at (20, 0), F3(3) at (10, 10), F4(4) at (0, 10)
inline std::shared_ptr<const RoadNetwork> MakeLineNetwork() {
  std::vector<NodeInfo> nodes(5);
  nodes[0] = {0, NodeKind::kDepot, 0.0, 0.0, "depot"};
  nodes[1] = {1, NodeKind::kFactory, 10.0, 0.0, "F1"};
  nodes[2] = {2, NodeKind::kFactory, 20.0, 0.0, "F2"};
  nodes[3] = {3, NodeKind::kFactory, 10.0, 10.0, "F3"};
  nodes[4] = {4, NodeKind::kFactory, 0.0, 10.0, "F4"};
  return std::make_shared<RoadNetwork>(
      RoadNetwork::FromCoordinates(std::move(nodes), /*road_factor=*/1.0));
}

/// Vehicle config with round numbers: capacity 100, mu 300, delta 2,
/// 60 km/h (1 km/min), 0 service time — schedules are then trivially
/// arithmetic in tests.
inline VehicleConfig MakeTestVehicleConfig() {
  VehicleConfig cfg;
  cfg.capacity = 100.0;
  cfg.fixed_cost = 300.0;
  cfg.cost_per_km = 2.0;
  cfg.speed_kmph = 60.0;
  cfg.service_time_min = 0.0;
  return cfg;
}

inline Order MakeOrder(int id, int pickup, int delivery, double qty,
                       double t_create, double t_latest) {
  Order o;
  o.id = id;
  o.pickup_node = pickup;
  o.delivery_node = delivery;
  o.quantity = qty;
  o.create_time_min = t_create;
  o.latest_time_min = t_latest;
  return o;
}

/// An instance on the line network with the given orders and `num_vehicles`
/// vehicles at the depot.
inline Instance MakeTestInstance(std::vector<Order> orders,
                                 int num_vehicles = 2) {
  Instance inst;
  inst.name = "test";
  inst.network = MakeLineNetwork();
  inst.vehicle_config = MakeTestVehicleConfig();
  inst.orders = std::move(orders);
  CanonicalizeOrders(&inst.orders);
  inst.vehicle_depots.assign(num_vehicles, 0);
  inst.num_time_intervals = 144;
  inst.horizon_minutes = kMinutesPerDay;
  return inst;
}

/// Brute-force feasibility oracle: replays `route` (the executed stop
/// sequence of `vehicle`, as recorded in EpisodeResult::routes) under an
/// earliest-feasible schedule and independently re-checks every constraint
/// of Sec. III — deliberately NOT reusing RoutePlanner::CheckSuffix, so
/// planner and simulator bugs cannot cancel out.
///
/// Replay semantics: the vehicle departs its depot at time 0, drives each
/// leg at config speed, waits at pickups until the order exists, and
/// spends service_time_min per stop. Serving everything as early as
/// possible is a sound relaxation for deadline checking: arriving earlier
/// never violates a delivery deadline, and pickups cannot start before
/// create_time regardless. If this replay breaks a deadline, no actual
/// execution of the same stop sequence could have met it ("no feasible
/// schedule exists" — the simulator may interleave decisions differently,
/// but it never reorders a vehicle's committed stops).
///
/// Checked: stop/order cross-references, LIFO stack discipline (every
/// delivery unloads the top of the stack; the stack is empty at the end,
/// i.e. the vehicle returns to its depot empty), capacity (onboard load
/// never exceeds Q), pickup-before-delivery with each order served at most
/// once, and delivery deadlines (service must start by latest_time_min).
inline ::testing::AssertionResult CheckRouteFeasible(
    const Instance& inst, int vehicle, const std::vector<Stop>& route) {
  const RoadNetwork& net = *inst.network;
  if (vehicle < 0 || vehicle >= static_cast<int>(inst.vehicle_depots.size())) {
    return ::testing::AssertionFailure()
           << "vehicle index " << vehicle << " out of range";
  }
  // Heterogeneous-fleet aware: this vehicle's own class config (the shared
  // config when the instance has no profiles).
  const VehicleConfig& cfg = inst.vehicle_config_of(vehicle);
  const int depot = inst.vehicle_depots[vehicle];
  constexpr double kTol = 1e-9;

  std::vector<int> lifo_stack;  // Onboard order ids, bottom first.
  std::vector<int> picked(inst.num_orders(), 0);
  std::vector<int> delivered(inst.num_orders(), 0);
  double load = 0.0;
  double time = 0.0;
  int node = depot;

  for (size_t i = 0; i < route.size(); ++i) {
    const Stop& stop = route[i];
    if (stop.order_id < 0 || stop.order_id >= inst.num_orders()) {
      return ::testing::AssertionFailure()
             << "vehicle " << vehicle << " stop " << i << ": order id "
             << stop.order_id << " out of range";
    }
    const Order& order = inst.order(stop.order_id);
    const int expected_node = stop.type == StopType::kPickup
                                  ? order.pickup_node
                                  : order.delivery_node;
    if (stop.node != expected_node) {
      return ::testing::AssertionFailure()
             << "vehicle " << vehicle << " stop " << i << " ("
             << stop.DebugString() << "): node " << stop.node
             << " does not match the order's "
             << (stop.type == StopType::kPickup ? "pickup" : "delivery")
             << " node " << expected_node;
    }

    time += net.TravelTimeMinutes(node, stop.node, cfg.speed_kmph);
    node = stop.node;
    double service_start = time;

    if (stop.type == StopType::kPickup) {
      if (picked[order.id]++ > 0) {
        return ::testing::AssertionFailure()
               << "vehicle " << vehicle << " picks up order " << order.id
               << " more than once";
      }
      // Pickups wait until the order exists.
      service_start = std::max(service_start, order.create_time_min);
      load += order.quantity;
      if (load > cfg.capacity + kTol) {
        return ::testing::AssertionFailure()
               << "vehicle " << vehicle << " stop " << i
               << ": load " << load << " exceeds capacity " << cfg.capacity
               << " after picking up order " << order.id;
      }
      lifo_stack.push_back(order.id);
    } else {
      if (delivered[order.id]++ > 0) {
        return ::testing::AssertionFailure()
               << "vehicle " << vehicle << " delivers order " << order.id
               << " more than once";
      }
      if (lifo_stack.empty() || lifo_stack.back() != order.id) {
        return ::testing::AssertionFailure()
               << "vehicle " << vehicle << " stop " << i
               << ": delivery of order " << order.id
               << " violates LIFO (stack top is "
               << (lifo_stack.empty() ? -1 : lifo_stack.back()) << ")";
      }
      if (service_start > order.latest_time_min + kTol) {
        return ::testing::AssertionFailure()
               << "vehicle " << vehicle << " stop " << i << ": order "
               << order.id << " delivered at " << service_start
               << " min, after its deadline " << order.latest_time_min
               << " (no feasible schedule exists for this stop sequence)";
      }
      lifo_stack.pop_back();
      load -= order.quantity;
    }
    // Docking-constrained nodes charge their surcharge on every service.
    time = service_start + cfg.service_time_min +
           inst.service_surcharge_at(stop.node);
  }

  if (!lifo_stack.empty()) {
    return ::testing::AssertionFailure()
           << "vehicle " << vehicle << " returns to its depot with "
           << lifo_stack.size() << " undelivered onboard order(s), first id "
           << lifo_stack.front();
  }
  // The return leg to the depot always exists and has no time window, so
  // nothing further to check; load == 0 follows from the empty stack.
  return ::testing::AssertionSuccess();
}

/// Oracle over a whole recorded episode (requires
/// SimulatorConfig::record_plan): every route feasible, and the OA / RP
/// outputs consistent — each served order appears exactly once, as a
/// pickup+delivery pair in the route of its assigned vehicle; unserved
/// orders appear nowhere.
inline ::testing::AssertionResult CheckEpisodeFeasible(
    const Instance& inst, const EpisodeResult& result) {
  if (result.routes.size() != inst.vehicle_depots.size()) {
    return ::testing::AssertionFailure()
           << "routes has " << result.routes.size() << " entries, expected "
           << inst.vehicle_depots.size();
  }
  if (result.order_assignment.size() != static_cast<size_t>(inst.num_orders())) {
    return ::testing::AssertionFailure()
           << "order_assignment has " << result.order_assignment.size()
           << " entries, expected " << inst.num_orders();
  }
  for (size_t v = 0; v < result.routes.size(); ++v) {
    const ::testing::AssertionResult ok =
        CheckRouteFeasible(inst, static_cast<int>(v), result.routes[v]);
    if (!ok) return ok;
  }
  for (int o = 0; o < inst.num_orders(); ++o) {
    const int assigned = result.order_assignment[o];
    for (size_t v = 0; v < result.routes.size(); ++v) {
      const int count = static_cast<int>(std::count_if(
          result.routes[v].begin(), result.routes[v].end(),
          [&](const Stop& s) { return s.order_id == o; }));
      const int expected = assigned == static_cast<int>(v) ? 2 : 0;
      if (count != expected) {
        return ::testing::AssertionFailure()
               << "order " << o << " (assigned to vehicle " << assigned
               << ") appears in " << count << " stop(s) of vehicle " << v
               << ", expected " << expected;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Bitwise episode-equality: every deterministic field of the outcome.
/// Wall-clock fields are excluded on purpose (they measure the machine,
/// not the policy).
inline void ExpectSameEpisode(const EpisodeResult& a, const EpisodeResult& b) {
  EXPECT_EQ(a.num_orders, b.num_orders);
  EXPECT_EQ(a.num_served, b.num_served);
  EXPECT_EQ(a.num_unserved, b.num_unserved);
  EXPECT_EQ(a.num_decisions, b.num_decisions);
  EXPECT_EQ(a.num_degraded_decisions, b.num_degraded_decisions);
  EXPECT_EQ(a.nuv, b.nuv);
  EXPECT_EQ(a.total_travel_length, b.total_travel_length);
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.sum_incremental_length, b.sum_incremental_length);
  EXPECT_EQ(a.order_assignment, b.order_assignment);
}

/// The decision a fresh evaluation-mode agent with `config` makes on `ctx`.
inline int LocalChoice(const AgentConfig& config, const DispatchContext& ctx) {
  DqnFleetAgent agent(config, "expected");
  return agent.Act(ctx);
}

}  // namespace dpdp::testing

#endif  // DPDP_TESTS_TEST_UTIL_H_
