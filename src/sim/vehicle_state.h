#ifndef DPDP_SIM_VEHICLE_STATE_H_
#define DPDP_SIM_VEHICLE_STATE_H_

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "model/instance.h"
#include "model/order.h"
#include "model/vehicle.h"
#include "net/road_network.h"
#include "routing/route_planner.h"
#include "scenario/scenario.h"

namespace dpdp {

/// One factory/depot visit actually executed by a vehicle (used for the
/// spatial-temporal capacity distribution of Fig. 9).
struct VisitRecord {
  int node = -1;
  double arrival = 0.0;
  double residual_capacity = 0.0;  ///< Capacity minus load on arrival.
};

/// Runtime state of one vehicle: an event-driven machine that executes the
/// planned route with the paper's kinematic simplifications (constant
/// speed, fixed service time) and enforces the "no interference" rule —
/// once the vehicle has departed toward a stop, that stop is committed and
/// replanning may only alter the remaining suffix.
///
/// The owner advances time monotonically via AdvanceTo() before querying
/// position/anchor or applying a new suffix.
class VehicleState {
 public:
  VehicleState(int id, int depot_node, const Instance* instance,
               bool record_visits = true);

  int id() const { return id_; }
  int depot() const { return depot_; }
  bool used() const { return used_; }
  int num_assigned_orders() const { return num_assigned_orders_; }
  const std::vector<Stop>& stops() const { return stops_; }
  const std::vector<VisitRecord>& visits() const { return visits_; }

  /// Returns to the freshly constructed state (idle at the depot at time
  /// 0, no route, no hold, no travel wave) for a new episode; the route,
  /// onboard and visit buffers keep their capacity.
  void Restart();

  /// Processes all arrival/service-completion events up to `now` (>= the
  /// previous advance).
  void AdvanceTo(double now);

  /// Interpolated planar position at the last advanced time.
  std::pair<double, double> Position() const;

  /// Writes the planning anchor at the last advanced time into `*anchor`
  /// (reusing its onboard buffer): the (node, time, onboard stack) from
  /// which the re-plannable suffix departs. For an idle vehicle this is its
  /// current node at the current time; for a moving/serving vehicle it is
  /// the committed stop at its predicted service completion.
  void MakeAnchor(PlanAnchor* anchor) const;

  /// The re-plannable stops (everything after the committed prefix), as a
  /// view into stops(): valid until the route next changes
  /// (ApplyNewSuffix), so a caller that changes it must copy first.
  std::span<const Stop> FreeSuffix() const;

  /// Index of the first re-plannable stop in stops().
  int FirstFreeIndex() const;

  /// Kilometres already driven or committed (arcs departed on), excluding
  /// the final depot-return leg until the route actually ends.
  double committed_length() const { return committed_length_; }

  /// Replaces the re-plannable suffix with a copy of `new_suffix` (as
  /// produced by RoutePlanner::BestInsertion on FreeSuffix()) at the
  /// current time; if the vehicle is idle it departs immediately.
  /// `serves_order` increments the assigned-order counter and marks the
  /// vehicle used. `new_suffix` must not view this vehicle's own stops
  /// (FreeSuffix()): the route is rewritten in place.
  void ApplyNewSuffix(std::span<const Stop> new_suffix, bool serves_order);

  /// Bookkeeping hook for disruptions that pull `n` previously assigned
  /// orders off this vehicle (breakdown re-plan, cancellation).
  void NoteOrdersRemoved(int n) {
    DPDP_CHECK(n >= 0 && n <= num_assigned_orders_);
    num_assigned_orders_ -= n;
  }

  /// Runs the route to completion (including the return-to-depot leg) and
  /// returns the total route length in km; 0 for a never-used vehicle.
  double FinishRoute();

  /// Current clock of this vehicle (last AdvanceTo / apply time).
  double clock() const { return clock_; }

  /// Breakdown freeze: until simulated minute `t` the vehicle finishes its
  /// committed leg/service (no interference) but cannot depart toward any
  /// further stop. Calls accumulate via max.
  void HoldUntil(double t) { hold_until_ = std::max(hold_until_, t); }
  double hold_until() const { return hold_until_; }

  /// Travel-time inflation factor applied to legs departed on from now on
  /// (congestion). Distances/costs are unaffected; a leg already in flight
  /// keeps its original arrival time (it is committed).
  void SetTravelTimeScale(double scale) {
    DPDP_CHECK(scale > 0.0);
    travel_time_scale_ = scale;
  }
  double travel_time_scale() const { return travel_time_scale_; }

  /// Scenario travel layer: a deterministic time-of-day multiplier sampled
  /// at each leg's departure time, composed multiplicatively with the
  /// disruption scale above. The layer consumes no randomness, so it can
  /// never perturb the disruption sub-streams. nullptr (default) = off.
  /// The pointed-to layer must outlive this vehicle.
  void SetTravelWave(const scenario::TravelLayer* wave) { wave_ = wave; }

  /// The config governing this vehicle (its profile under a heterogeneous
  /// fleet, the instance's shared config otherwise).
  const VehicleConfig& config() const { return *config_; }

 private:
  enum class Phase { kIdle, kDriving, kServing };

  const Order& LookupOrder(int id) const;
  double TravelMinutes(int from, int to, double depart_time) const;
  /// Starts driving toward stops_[next_idx_] at `depart_time`.
  void Depart(double depart_time);
  /// Predicted completion time of service at the stop being driven
  /// to/served (valid when phase != kIdle).
  double PredictedServiceEnd() const;

  int id_;
  int depot_;
  const Instance* instance_;
  const RoadNetwork* net_;
  const VehicleConfig* config_;  ///< instance_->vehicle_config_of(id_).
  const scenario::TravelLayer* wave_ = nullptr;

  std::vector<Stop> stops_;
  size_t next_idx_ = 0;  ///< Stop being driven to / served; == size if none.
  Phase phase_ = Phase::kIdle;
  double clock_ = 0.0;

  int idle_node_;           ///< Valid when kIdle.
  int from_node_ = -1;      ///< Valid when kDriving.
  double depart_time_ = 0.0;
  double arrive_time_ = 0.0;
  double service_end_ = 0.0;  ///< Valid when kServing.

  std::vector<int> onboard_;  ///< LIFO stack of order ids.
  double hold_until_ = 0.0;
  double travel_time_scale_ = 1.0;
  double load_ = 0.0;
  double committed_length_ = 0.0;
  bool used_ = false;
  bool finished_ = false;
  bool record_visits_ = true;
  int num_assigned_orders_ = 0;
  std::vector<VisitRecord> visits_;
};

}  // namespace dpdp

#endif  // DPDP_SIM_VEHICLE_STATE_H_
