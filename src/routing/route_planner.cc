#include "routing/route_planner.h"

#include <algorithm>
#include <limits>
#include <string>

#include "net/road_network.h"

namespace dpdp {

namespace {

/// Which rule a stop sequence breaks first (kNone: it breaks none).
enum class Reject { kNone, kAnchorLoad, kCapacity, kLifo, kLate, kCargoLeft };

/// Outcome of one feasibility walk. `length` and `completion_time` are set
/// only when `reject` is kNone.
struct WalkResult {
  Reject reject = Reject::kNone;
  int order_id = -1;  ///< Order of the offending stop (capacity/LIFO/late).
  double length = 0.0;
  double completion_time = 0.0;
};

/// The planner's rules, written once: walks the `num_stops` stops yielded
/// by `stop_at(k)` from `anchor` to `depot_node` under `cfg` and the
/// instance's docking surcharge, stopping at the first violation. Checks,
/// in order of detection: anchor load, then per stop the capacity at a
/// pickup, or LIFO and the deadline at a delivery, then leftover cargo.
/// Every accepted stop is passed to `record(arrival, service_start,
/// departure, residual_capacity)`. `stack` is the planner's scratch for
/// the onboard LIFO stack; reserving anchor.onboard.size() + num_stops
/// keeps the walk allocation-free.
///
/// CheckSuffix and BestInsertion both run this walk, so a candidate's
/// length is computed by the same floating-point operations in the same
/// order whichever of the two evaluates it.
template <typename StopAt, typename Record>
WalkResult WalkRoute(const Instance& instance, const VehicleConfig& cfg,
                     const PlanAnchor& anchor, int num_stops,
                     int depot_node, const StopAt& stop_at,
                     const Record& record, std::vector<int>* stack) {
  const RoadNetwork& network = *instance.network;
  const std::vector<double>& surcharge = instance.node_service_surcharge_min;
  WalkResult out;

  stack->assign(anchor.onboard.begin(), anchor.onboard.end());
  double load = 0.0;
  for (int id : *stack) load += instance.order(id).quantity;
  if (load > cfg.capacity) {
    out.reject = Reject::kAnchorLoad;
    return out;
  }

  int node = anchor.node;
  double now = anchor.time;
  double length = 0.0;

  for (int k = 0; k < num_stops; ++k) {
    const Stop& stop = stop_at(k);
    const Order& order = instance.order(stop.order_id);
    length += network.Distance(node, stop.node);
    const double arrival =
        now + network.TravelTimeMinutes(node, stop.node, cfg.speed_kmph);
    const double residual = cfg.capacity - load;

    double service_start = arrival;
    if (stop.type == StopType::kPickup) {
      DPDP_CHECK(stop.node == order.pickup_node);
      // Pickups may wait for the order's creation (earliest service time).
      service_start = std::max(arrival, order.create_time_min);
      load += order.quantity;
      if (load > cfg.capacity + 1e-9) {
        out.reject = Reject::kCapacity;
        out.order_id = stop.order_id;
        return out;
      }
      stack->push_back(stop.order_id);
    } else {
      DPDP_CHECK(stop.node == order.delivery_node);
      if (stack->empty() || stack->back() != stop.order_id) {
        out.reject = Reject::kLifo;
        out.order_id = stop.order_id;
        return out;
      }
      if (service_start > order.latest_time_min + 1e-9) {
        out.reject = Reject::kLate;
        out.order_id = stop.order_id;
        return out;
      }
      stack->pop_back();
      load -= order.quantity;
    }

    double service_min = cfg.service_time_min;
    if (!surcharge.empty()) service_min += surcharge[stop.node];
    const double departure = service_start + service_min;
    record(arrival, service_start, departure, residual);
    node = stop.node;
    now = departure;
  }

  if (!stack->empty()) {
    out.reject = Reject::kCargoLeft;
    return out;
  }
  out.length = length + network.Distance(node, depot_node);
  out.completion_time =
      now + network.TravelTimeMinutes(node, depot_node, cfg.speed_kmph);
  return out;
}

/// Stop k of the candidate that inserts `pickup` at position i and
/// `delivery` at position j (i < j, both in the new sequence) into `old`:
/// old[0, i) -> pickup -> old[i, j-1) -> delivery -> old[j-1, n).
const Stop& CandidateStop(std::span<const Stop> old, const Stop& pickup,
                          const Stop& delivery, int i, int j, int k) {
  if (k < i) return old[k];
  if (k == i) return pickup;
  if (k < j) return old[k - 1];
  if (k == j) return delivery;
  return old[k - 2];
}

}  // namespace

void Insertion::Clear() {
  pickup_pos = -1;
  delivery_pos = -1;
  suffix.clear();
  schedule.stops.clear();
  schedule.residual_capacity.clear();
  schedule.length = 0.0;
  schedule.completion_time = 0.0;
  old_length = 0.0;
  incremental_length = 0.0;
}

RoutePlanner::RoutePlanner(const Instance* instance) : instance_(instance) {
  DPDP_CHECK(instance_ != nullptr && instance_->network != nullptr);
}

Result<SuffixSchedule> RoutePlanner::CheckSuffix(
    const PlanAnchor& anchor, std::span<const Stop> suffix, int depot_node,
    const VehicleConfig* vehicle) const {
  const VehicleConfig& cfg =
      vehicle != nullptr ? *vehicle : instance_->vehicle_config;
  SuffixSchedule out;
  out.stops.reserve(suffix.size());
  out.residual_capacity.reserve(suffix.size());
  stack_.reserve(anchor.onboard.size() + suffix.size());

  const WalkResult walk = WalkRoute(
      *instance_, cfg, anchor, static_cast<int>(suffix.size()), depot_node,
      [&suffix](int k) -> const Stop& { return suffix[k]; },
      [&out](double arrival, double service_start, double departure,
             double residual) {
        out.stops.push_back({arrival, service_start, departure});
        out.residual_capacity.push_back(residual);
      },
      &stack_);

  switch (walk.reject) {
    case Reject::kNone:
      break;
    case Reject::kAnchorLoad:
      return Status::Infeasible("anchor load already exceeds capacity");
    case Reject::kCapacity:
      return Status::Infeasible("capacity exceeded at pickup of " +
                                order(walk.order_id).DebugString());
    case Reject::kLifo:
      return Status::Infeasible("LIFO violation delivering " +
                                order(walk.order_id).DebugString());
    case Reject::kLate:
      return Status::Infeasible("late delivery of " +
                                order(walk.order_id).DebugString());
    case Reject::kCargoLeft:
      return Status::Infeasible("cargo left onboard at end of route");
  }
  out.length = walk.length;
  out.completion_time = walk.completion_time;
  return out;
}

double RoutePlanner::SuffixLength(const PlanAnchor& anchor,
                                  std::span<const Stop> suffix,
                                  int depot_node) const {
  const RoadNetwork& network = *instance_->network;
  int node = anchor.node;
  double length = 0.0;
  for (const Stop& stop : suffix) {
    length += network.Distance(node, stop.node);
    node = stop.node;
  }
  return length + network.Distance(node, depot_node);
}

bool RoutePlanner::BestInsertion(const PlanAnchor& anchor,
                                 std::span<const Stop> old_suffix,
                                 int depot_node, const Order& order,
                                 Insertion* out,
                                 const VehicleConfig* vehicle) const {
  const VehicleConfig& cfg =
      vehicle != nullptr ? *vehicle : instance_->vehicle_config;
  const int n = static_cast<int>(old_suffix.size());
  const Stop pickup{order.pickup_node, order.id, StopType::kPickup};
  const Stop delivery{order.delivery_node, order.id, StopType::kDelivery};

  stack_.reserve(anchor.onboard.size() + old_suffix.size() + 2);
  double best_length = std::numeric_limits<double>::infinity();
  int best_i = -1;
  int best_j = -1;
  last_candidates_ = 0;

  // Insert the pickup at position i and the delivery at position j (both in
  // the *new* suffix), i < j. Enumerating all pairs is the paper's
  // "enumeration way"; the walk rejects LIFO-invalid placements. Candidates
  // are walked in place and only the winner is materialized.
  for (int i = 0; i <= n; ++i) {
    for (int j = i + 1; j <= n + 1; ++j) {
      ++last_candidates_;
      const WalkResult walk = WalkRoute(
          *instance_, cfg, anchor, n + 2, depot_node,
          [&](int k) -> const Stop& {
            return CandidateStop(old_suffix, pickup, delivery, i, j, k);
          },
          [](double, double, double, double) {}, &stack_);
      if (walk.reject == Reject::kNone && walk.length < best_length) {
        best_length = walk.length;
        best_i = i;
        best_j = j;
      }
    }
  }

  if (best_i < 0) {
    out->Clear();
    return false;
  }

  out->pickup_pos = best_i;
  out->delivery_pos = best_j;
  out->suffix.clear();
  for (int k = 0; k < n + 2; ++k) {
    out->suffix.push_back(
        CandidateStop(old_suffix, pickup, delivery, best_i, best_j, k));
  }
  // The winner's schedule, from the same walk that ranked it.
  SuffixSchedule& schedule = out->schedule;
  schedule.stops.clear();
  schedule.residual_capacity.clear();
  const WalkResult walk = WalkRoute(
      *instance_, cfg, anchor, n + 2, depot_node,
      [out](int k) -> const Stop& { return out->suffix[k]; },
      [&schedule](double arrival, double service_start, double departure,
                  double residual) {
        schedule.stops.push_back({arrival, service_start, departure});
        schedule.residual_capacity.push_back(residual);
      },
      &stack_);
  DPDP_CHECK(walk.reject == Reject::kNone);
  DPDP_CHECK(walk.length == best_length);
  schedule.length = walk.length;
  schedule.completion_time = walk.completion_time;
  out->old_length = SuffixLength(anchor, old_suffix, depot_node);
  out->incremental_length = schedule.length - out->old_length;
  return true;
}

}  // namespace dpdp
