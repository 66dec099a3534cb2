#ifndef DPDP_SIM_DISPATCHER_H_
#define DPDP_SIM_DISPATCHER_H_

#include <string>
#include <utility>
#include <vector>

#include "model/instance.h"
#include "model/order.h"
#include "routing/route_planner.h"
#include "sim/disruption.h"

namespace dpdp {

/// Everything the route planner derived for one vehicle w.r.t. the order
/// being dispatched — Algorithm 2's outputs, i.e. the raw material of the
/// individual MDP state s_{t,k}. Infeasible vehicles (constraint
/// embedding) carry feasible = false and the paper's sentinel values.
struct VehicleOption {
  int vehicle = -1;
  bool feasible = false;
  bool used = false;                ///< f_{t,k}: served any order before.
  int num_assigned_orders = 0;
  double current_length = -1.0;     ///< d_{t,k}: route length now (km).
  double new_length = -1.0;         ///< d^i_{t,k}: length if it takes o.
  double incremental_length = -1.0; ///< Delta d = new - current.
  double st_score = -1.0;           ///< xi: ST Score of the tentative route.
  std::pair<double, double> position{0.0, 0.0};  ///< Planar km coordinates.
  Insertion insertion;              ///< Valid only when feasible.
};

/// The decision context handed to a dispatcher for one order.
struct DispatchContext {
  const Instance* instance = nullptr;
  const Order* order = nullptr;
  double now = 0.0;
  int time_interval = 0;            ///< t in the MDP state.
  std::vector<VehicleOption> options;  ///< One entry per vehicle, by index.
  int num_feasible = 0;
};

/// Why an order ended the episode unserved. Replaces the previous bare
/// num_unserved counter: post-mortems need to distinguish "the fleet had no
/// feasible vehicle" from injected faults.
enum class SkipReason {
  kNoFeasibleVehicle,  ///< Constraint embedding left zero options.
  kCancelled,          ///< Customer cancellation (before pickup committed).
  kBreakdownDropped,   ///< Breakdown re-plan found no feasible vehicle.
};

inline const char* SkipReasonName(SkipReason reason) {
  switch (reason) {
    case SkipReason::kNoFeasibleVehicle:
      return "no_feasible_vehicle";
    case SkipReason::kCancelled:
      return "cancelled";
    case SkipReason::kBreakdownDropped:
      return "breakdown_dropped";
  }
  return "unknown";
}

/// One unserved order with its reason.
struct OrderSkip {
  int order_id = -1;
  SkipReason reason = SkipReason::kNoFeasibleVehicle;
};

/// Outcome summary of one simulated day (episode).
struct EpisodeResult {
  std::string instance_name;
  int num_orders = 0;
  int num_served = 0;
  int num_unserved = 0;
  double nuv = 0.0;                  ///< Number of used vehicles.
  double total_travel_length = 0.0;  ///< TTL in km.
  double total_cost = 0.0;           ///< TC = mu * NUV + delta * TTL.
  double decision_wall_seconds = 0.0;  ///< Time spent inside Act.
  /// Number of decisions this episode (orders with at least one feasible
  /// option). The environment records one sample in the global
  /// "sim.decision_latency_s" histogram per decision, so the histogram
  /// count reconciles exactly against summed num_decisions.
  int num_decisions = 0;
  double sum_incremental_length = 0.0;
  /// Mean simulated minutes between an order's creation and its dispatch
  /// decision. 0 under the paper's immediate-service strategy; ~W/2 under
  /// fixed-interval buffering with window W (Sec. IV-D discussion).
  double mean_response_min = 0.0;
  /// Kilometres shaved off planned suffixes by per-decision local search
  /// (0 unless SimulatorConfig::local_search_passes > 0).
  double local_search_km_saved = 0.0;

  /// Robustness telemetry (all 0 / empty unless fault injection or
  /// degradation triggered — see SimulatorConfig::disruption and
  /// decision_time_budget_s).
  int num_degraded_decisions = 0;  ///< Greedy fallback took over.
  int num_cancelled = 0;           ///< Orders lost to cancellation events.
  int num_breakdowns = 0;          ///< Breakdown events applied.
  int num_replanned = 0;           ///< Orders moved off broken vehicles.
  std::vector<OrderSkip> skipped_orders;          ///< One per unserved order.
  std::vector<AppliedDisruption> disruption_trace;  ///< Applied events.

  /// The problem's formal outputs (Sec. III), filled when
  /// SimulatorConfig::record_plan is set:
  /// OA — order_assignment[o] = vehicle serving order o (-1 if unserved);
  /// RP — final executed stop sequence per vehicle (empty if unused).
  std::vector<int> order_assignment;
  std::vector<std::vector<Stop>> routes;

  bool all_served() const { return num_unserved == 0; }
};

/// The greedy-insertion emergency rule (Baseline 1's min incremental
/// length, first best wins ties): the answer of last resort shared by the
/// simulator's graceful-degradation path and the serving layer's
/// load-shedding path. Requires at least one feasible option.
int GreedyInsertionFallback(const DispatchContext& context);

/// Vehicle-selection policy: baselines, learned agents and serving
/// adapters implement it, and RunEpisode (sim/environment.h) drives it
/// through one episode: Act on every decision, Observe what executed,
/// Learn once the day is over.
class Dispatcher {
 public:
  virtual ~Dispatcher() = default;

  virtual const char* name() const = 0;

  /// Picks the vehicle to serve `context.order`; the context has at least
  /// one feasible option. A return of -1 (or any infeasible index) refuses
  /// the decision: the environment then degrades to the greedy-insertion
  /// fallback and reports the vehicle it executed via Observe.
  virtual int Act(const DispatchContext& context) = 0;

  /// Observes the vehicle the environment actually executed for the last
  /// Act on `context` (it differs from Act's return when graceful
  /// degradation overrode the choice). Default: no-op.
  virtual void Observe(const DispatchContext& context, int vehicle) {
    (void)context;
    (void)vehicle;
  }

  /// Called once the episode has finished (long-term reward folding,
  /// replay storage, gradient steps). Default: no-op.
  virtual void Learn(const EpisodeResult& result) { (void)result; }
};

}  // namespace dpdp

#endif  // DPDP_SIM_DISPATCHER_H_
