#ifndef DPDP_ROUTING_ROUTE_PLANNER_H_
#define DPDP_ROUTING_ROUTE_PLANNER_H_

#include <span>
#include <vector>

#include "model/instance.h"
#include "model/order.h"
#include "model/vehicle.h"
#include "util/result.h"

namespace dpdp {

/// Where (and when, and with what cargo) a vehicle's re-plannable route
/// suffix begins. The "no interference with in-service vehicles" rule means
/// only the suffix after the currently committed stop may change; the
/// anchor captures the vehicle's physical situation at that point.
struct PlanAnchor {
  int node = -1;                ///< Node the suffix departs from.
  double time = 0.0;            ///< Earliest departure time from `node`.
  /// LIFO stack of onboard order ids (bottom first, top last): orders picked
  /// up in the committed prefix whose deliveries lie in the suffix.
  std::vector<int> onboard;
};

/// Timing and load profile of a feasible suffix.
struct SuffixSchedule {
  std::vector<StopSchedule> stops;
  /// eta (Definition 3): residual capacity upon *arrival* at each stop,
  /// i.e. capacity minus the load carried into the stop.
  std::vector<double> residual_capacity;
  double length = 0.0;           ///< km: anchor -> stops... -> depot.
  double completion_time = 0.0;  ///< Arrival time back at the depot.
};

/// A feasible insertion of one order into a route suffix (Algorithm 2).
struct Insertion {
  int pickup_pos = -1;    ///< Index of the pickup stop in `suffix`.
  int delivery_pos = -1;  ///< Index of the delivery stop in `suffix`.
  std::vector<Stop> suffix;
  SuffixSchedule schedule;
  /// km of the pre-insertion suffix (anchor -> ... -> depot).
  double old_length = 0.0;
  /// Length delta vs. the pre-insertion suffix (both measured anchor ->
  /// ... -> depot), i.e. the marginal kilometres caused by the order.
  double incremental_length = 0.0;

  /// Resets to the empty insertion; the buffers keep their capacity.
  void Clear();
};

/// The paper's route planner (Algorithm 2): exhaustive enumeration of
/// pickup/delivery insertion positions with time-window, LIFO and capacity
/// validation, returning the shortest feasible temporary route.
///
/// The planner is cheap to construct and borrows the instance (network,
/// vehicle config, order pool and docking surcharge), which must outlive
/// it. It owns scratch (the walk's LIFO stack), so one planner serves one
/// thread at a time; once that scratch has grown, BestInsertion into a
/// reused Insertion allocates nothing.
class RoutePlanner {
 public:
  explicit RoutePlanner(const Instance* instance);

  /// Validates `suffix` departing from `anchor` and ending at `depot_node`.
  /// Checks LIFO stack discipline (every delivery matches the top of the
  /// stack and nothing remains at the end), capacity (load never exceeds
  /// Q), and time windows (pickups wait for order creation; deliveries must
  /// begin no later than the order's latest time); every stop costs the
  /// service time plus the instance's docking surcharge at its node.
  /// Returns the schedule on success, Status::Infeasible naming the first
  /// violation otherwise.
  ///
  /// `vehicle` overrides the instance's vehicle_config for this call — the
  /// heterogeneous-fleet hook: one planner serves a mixed fleet by passing
  /// each vehicle's own profile. nullptr (the default) keeps the shared
  /// config, which is the pre-scenario behaviour exactly.
  Result<SuffixSchedule> CheckSuffix(const PlanAnchor& anchor,
                                     std::span<const Stop> suffix,
                                     int depot_node,
                                     const VehicleConfig* vehicle =
                                         nullptr) const;

  /// Pure travel length of a suffix (anchor -> stops... -> depot), ignoring
  /// feasibility. Used for the "current route length" state feature.
  double SuffixLength(const PlanAnchor& anchor, std::span<const Stop> suffix,
                      int depot_node) const;

  /// Algorithm 2: tries every (pickup, delivery) insertion position pair in
  /// `old_suffix`, keeps feasible candidates, and writes the one with the
  /// shortest resulting suffix (the first in (pickup, delivery) order on a
  /// tie) into `*out`, reusing its buffers. Candidates are checked in place
  /// by CheckSuffix's own walk, with no allocation per candidate; only the
  /// winner is materialized and scheduled, so its result is bit-identical
  /// to running CheckSuffix on every candidate. Returns false, with `*out`
  /// cleared, when no placement works. `old_suffix` must not view
  /// `out->suffix`.
  bool BestInsertion(const PlanAnchor& anchor,
                     std::span<const Stop> old_suffix, int depot_node,
                     const Order& order, Insertion* out,
                     const VehicleConfig* vehicle = nullptr) const;

  /// Number of (pickup, delivery) candidates the last BestInsertion call
  /// enumerated, (n+1)(n+2)/2 for an n-stop suffix (route_planner_test
  /// reads it).
  int last_candidates_evaluated() const { return last_candidates_; }

  /// The order pool entry with the given id (shared with callers such as
  /// the local-search improver).
  const Order& order(int id) const { return instance_->order(id); }

 private:
  const Instance* instance_;
  mutable int last_candidates_ = 0;
  /// The walk's LIFO stack of onboard order ids.
  mutable std::vector<int> stack_;
};

}  // namespace dpdp

#endif  // DPDP_ROUTING_ROUTE_PLANNER_H_
