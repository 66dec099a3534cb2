#ifndef DPDP_SIM_ENVIRONMENT_H_
#define DPDP_SIM_ENVIRONMENT_H_

#include <cstdint>
#include <vector>

#include "model/instance.h"
#include "nn/matrix.h"
#include "routing/route_planner.h"
#include "scenario/scenario.h"
#include "sim/dispatcher.h"
#include "sim/vehicle_state.h"
#include "stpred/divergence.h"
#include "stpred/st_score.h"

namespace dpdp {

/// Knobs of the episode simulation (Algorithm 1).
struct SimulatorConfig {
  /// Predicted STD matrix (num_factories x T) used to compute the ST Score
  /// state feature. When empty, every option's st_score is 0 (the vanilla
  /// DRL baselines and heuristics ignore it anyway).
  nn::Matrix predicted_std;
  DivergenceKind divergence = DivergenceKind::kJensenShannon;
  /// Record per-vehicle visit histories (needed for Fig. 9 capacity
  /// distributions; costs memory on big fleets).
  bool record_visits = true;
  /// Fixed time-interval buffering (Sec. IV-D): orders created within a
  /// window of this many minutes are held and dispatched together at the
  /// window boundary (still in creation order). <= 0 reproduces the
  /// paper's deployed immediate-service strategy.
  double buffer_window_min = 0.0;
  /// When > 0, run reinsertion local search (routing/local_search.h) on
  /// the chosen vehicle's new suffix after every assignment, with this
  /// many improvement passes. 0 = the paper's pure insertion policy.
  int local_search_passes = 0;
  /// Fill EpisodeResult::order_assignment / routes (the problem's formal
  /// OA / RP outputs).
  bool record_plan = false;
  /// Fault injection (sim/disruption.h). Default injects nothing. Episode
  /// e draws its event stream from DeriveSeed(disruption.seed, e), where e
  /// counts episodes on this environment (see set_episodes_run).
  DisruptionConfig disruption;
  /// Graceful-degradation time budget: when > 0 and a decision takes
  /// longer than this many wall seconds, the decision is discarded
  /// and the greedy-insertion fallback dispatches instead. Off by default
  /// because wall-clock thresholds break run-to-run determinism.
  double decision_time_budget_s = 0.0;
  /// Scenario travel layer (scenario/scenario.h): a deterministic
  /// time-of-day travel-time multiplier applied at each leg's departure on
  /// the vehicle clock, composing multiplicatively with the disruption
  /// inflation events above. Inactive by default — the layer consumes no
  /// randomness, so the disruption sub-streams are never perturbed and the
  /// default config is bit-identical to the pre-scenario simulator.
  scenario::TravelLayer travel;
};

/// The stepwise form of the dispatching simulation (Algorithm 1): one
/// day's order stream replayed in creation order, with control handed back
/// to the caller at every decision point. RunEpisode below is the one
/// episode loop; the step API underneath it is:
///
///   env.Reset();
///   while (env.AdvanceToDecision()) {
///     const DispatchContext& ctx = env.ObserveDecision();
///     int executed = env.Apply(DecideSomehow(ctx), elapsed_seconds);
///     // ctx stays valid here (e.g. for agent Observe) until the next
///     // AdvanceToDecision call.
///   }
///   const EpisodeResult& result = env.result();
///
/// AdvanceToDecision owns everything between decisions: buffering windows,
/// disruption processing, cancelled / infeasible order skips, and — once
/// the stream is exhausted — episode finalization (route finish, totals,
/// episode metrics). Apply owns everything a decision triggers: graceful
/// degradation of invalid or over-budget choices, optional local search,
/// route commit and the served/assignment bookkeeping.
class Environment {
 public:
  Environment(const Instance* instance, SimulatorConfig config = {});

  /// Starts a fresh episode: new fleet, new disruption stream (a pure
  /// function of (disruption.seed, episodes_run)), zeroed result.
  void Reset();

  /// Advances the episode to its next decision point, processing
  /// disruptions and skipping undispatchable orders on the way. Returns
  /// true when a decision is pending (ObserveDecision / Apply may be
  /// called), false when the episode just finished (result() is final).
  bool AdvanceToDecision();

  /// The pending decision's context. Valid from an AdvanceToDecision that
  /// returned true until the next AdvanceToDecision call — in particular
  /// it survives Apply, so agents can Observe the executed action against
  /// the same context they acted on.
  const DispatchContext& ObserveDecision() const;

  /// Executes `vehicle` for the pending decision and returns the vehicle
  /// that actually dispatched: `vehicle` itself, or the greedy-insertion
  /// fallback when the choice was invalid (out of range / infeasible /
  /// refused with -1) or `decision_seconds` blew the configured budget.
  /// `decision_seconds` is the caller-measured decision wall time; it
  /// feeds the result's latency accounting and the degradation budget.
  int Apply(int vehicle, double decision_seconds = 0.0);

  /// The episode result so far; final after AdvanceToDecision returns
  /// false.
  const EpisodeResult& result() const { return result_; }

  /// Spatial-temporal capacity distribution (num_factories x T) of the
  /// last episode: residual capacity brought to each (factory, interval)
  /// by all vehicles (Fig. 9). Requires record_visits.
  nn::Matrix LastCapacityDistribution() const;

  const Instance& instance() const { return *instance_; }
  const SimulatorConfig& config() const { return config_; }

  /// Number of episodes completed: the disruption-stream index of the next
  /// episode. Restored on checkpoint resume so the remaining episodes see
  /// the same fault streams an uninterrupted run would have.
  int episodes_run() const { return episodes_run_; }
  void set_episodes_run(int episodes) { episodes_run_ = episodes; }

 private:
  /// Fills ctx_ for `order` in place: every vehicle's option, reusing the
  /// option and insertion buffers of the previous decision.
  void BuildContext(const Order& order, double decision_time);

  /// Applies every pending disruption event with time <= now.
  void ProcessDisruptionsUntil(double now, EpisodeResult* result);
  void ApplyBreakdown(const DisruptionEvent& event, EpisodeResult* result);
  void ApplyCancellation(const DisruptionEvent& event, EpisodeResult* result);
  /// Episode finalization: tail disruptions, route finish, cost totals,
  /// episode counters.
  void Finish();

  const Instance* instance_;
  SimulatorConfig config_;
  RoutePlanner planner_;
  std::vector<VehicleState> vehicles_;
  // Scratch of the context build, reused across vehicles and decisions.
  PlanAnchor anchor_;
  StScoreScratch st_scratch_;

  int episodes_run_ = 0;
  // Per-episode fault-injection state.
  std::vector<DisruptionEvent> events_;
  size_t next_event_ = 0;
  std::vector<int> assigned_to_;     ///< order id -> current vehicle or -1.
  std::vector<uint8_t> dispatched_;  ///< Decision already made / resolved.
  std::vector<uint8_t> cancelled_;   ///< Cancelled before dispatch.

  // Step-loop state.
  EpisodeResult result_;
  DispatchContext ctx_;       ///< Context of the pending decision.
  size_t next_order_ = 0;     ///< Index into instance_->orders.
  double response_sum_ = 0.0;
  bool decision_pending_ = false;
  bool in_episode_ = false;
};

/// Runs one full episode of `env` under `dispatcher` (Algorithm 1): Reset,
/// then per decision point Act (timed: the wall time feeds the latency
/// accounting and the degradation budget of Apply), Apply, and Observe the
/// executed vehicle; Learn on the finished result, which is returned.
/// Orders for which no vehicle is feasible are counted unserved and
/// skipped (the evaluation protocol assumes the fleet suffices).
EpisodeResult RunEpisode(Environment* env, Dispatcher* dispatcher);

}  // namespace dpdp

#endif  // DPDP_SIM_ENVIRONMENT_H_
