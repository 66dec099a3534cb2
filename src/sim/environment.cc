#include "sim/environment.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/local_search.h"
#include "stpred/st_score.h"
#include "stpred/std_matrix.h"
#include "util/timer.h"

namespace dpdp {

namespace {

/// Registry handles are resolved once (lookup takes a mutex) and shared by
/// every Environment; the update paths are lock-free. Recording is pure
/// telemetry: it never feeds back into dispatch, so goldens are unchanged.
struct SimMetrics {
  obs::Histogram* decision_latency =
      obs::MetricsRegistry::Global().GetHistogram(
          "sim.decision_latency_s", obs::LatencyBucketsSeconds());
  obs::Counter* decisions =
      obs::MetricsRegistry::Global().GetCounter("sim.decisions");
  obs::Counter* degraded =
      obs::MetricsRegistry::Global().GetCounter("sim.degraded_decisions");
  obs::Counter* episodes =
      obs::MetricsRegistry::Global().GetCounter("sim.episodes");
  obs::Counter* orders_served =
      obs::MetricsRegistry::Global().GetCounter("sim.orders_served");
  obs::Counter* orders_unserved =
      obs::MetricsRegistry::Global().GetCounter("sim.orders_unserved");
  obs::Counter* breakdowns =
      obs::MetricsRegistry::Global().GetCounter("sim.breakdowns");
  obs::Counter* cancellations =
      obs::MetricsRegistry::Global().GetCounter("sim.cancellations");
  obs::Counter* replanned =
      obs::MetricsRegistry::Global().GetCounter("sim.orders_replanned");
};

SimMetrics& Metrics() {
  static SimMetrics* metrics = new SimMetrics;
  return *metrics;
}

}  // namespace

Environment::Environment(const Instance* instance, SimulatorConfig config)
    : instance_(instance),
      config_(std::move(config)),
      planner_(instance) {
  DPDP_CHECK(instance_ != nullptr);
  DPDP_CHECK_OK(ValidateInstance(*instance_));
  vehicles_.reserve(instance_->vehicle_depots.size());
  for (int v = 0; v < instance_->num_vehicles(); ++v) {
    vehicles_.emplace_back(v, instance_->vehicle_depots[v], instance_,
                           config_.record_visits);
  }
  if (!config_.predicted_std.empty()) {
    DPDP_CHECK(config_.predicted_std.rows() ==
               instance_->network->num_factories());
    DPDP_CHECK(config_.predicted_std.cols() ==
               instance_->num_time_intervals);
  }
}

void Environment::Reset() {
  // Fresh fleet each episode; each vehicle keeps the buffers it grew.
  for (VehicleState& vehicle : vehicles_) vehicle.Restart();
  if (config_.travel.active()) {
    for (VehicleState& vehicle : vehicles_) {
      vehicle.SetTravelWave(&config_.travel);
    }
  }

  result_ = EpisodeResult{};
  result_.instance_name = instance_->name;
  result_.num_orders = instance_->num_orders();
  if (config_.record_plan) {
    result_.order_assignment.assign(instance_->num_orders(), -1);
  }

  // Fresh fault-injection state; the stream is a pure function of
  // (disruption.seed, episode index), independent of decision behavior.
  events_ = GenerateDisruptionEvents(config_.disruption, *instance_,
                                     episodes_run_);
  next_event_ = 0;
  assigned_to_.assign(instance_->num_orders(), -1);
  dispatched_.assign(instance_->num_orders(), 0);
  cancelled_.assign(instance_->num_orders(), 0);

  next_order_ = 0;
  response_sum_ = 0.0;
  decision_pending_ = false;
  in_episode_ = true;
}

namespace {

/// Resets `opt` to the default option (infeasible, the paper's -1
/// sentinels, an empty insertion) while its insertion keeps the buffers it
/// grew in earlier decisions.
void ResetOption(VehicleOption* opt) {
  Insertion insertion = std::move(opt->insertion);
  insertion.Clear();
  *opt = VehicleOption{};
  opt->insertion = std::move(insertion);
}

}  // namespace

void Environment::BuildContext(const Order& order, double decision_time) {
  DPDP_TRACE_SPAN("sim.build_context");
  ctx_.instance = instance_;
  ctx_.order = &order;
  ctx_.now = decision_time;
  ctx_.time_interval =
      TimeIntervalIndex(order.create_time_min, instance_->num_time_intervals,
                        instance_->horizon_minutes);
  ctx_.num_feasible = 0;
  ctx_.options.resize(vehicles_.size());

  for (size_t v = 0; v < vehicles_.size(); ++v) {
    VehicleState& vehicle = vehicles_[v];
    vehicle.AdvanceTo(ctx_.now);

    VehicleOption& opt = ctx_.options[v];
    ResetOption(&opt);
    opt.vehicle = static_cast<int>(v);
    opt.used = vehicle.used();
    opt.num_assigned_orders = vehicle.num_assigned_orders();
    opt.position = vehicle.Position();

    if (vehicle.hold_until() > ctx_.now + 1e-9) {
      // Broken down: excluded from dispatch until repaired (constraint
      // embedding, same sentinel treatment as planner-infeasible).
      continue;
    }
    vehicle.MakeAnchor(&anchor_);
    if (!planner_.BestInsertion(anchor_, vehicle.FreeSuffix(),
                                vehicle.depot(), order, &opt.insertion,
                                &vehicle.config())) {
      // Constraint embedding: the vehicle is excluded from inference and
      // its state entries take the paper's sentinel value -1.
      continue;
    }
    opt.feasible = true;
    ++ctx_.num_feasible;
    const double committed = vehicle.committed_length();
    opt.current_length = committed + opt.insertion.old_length;
    opt.new_length = committed + opt.insertion.schedule.length;
    opt.incremental_length = opt.insertion.incremental_length;
    if (!config_.predicted_std.empty()) {
      opt.st_score = ComputeStScore(
          *instance_->network, opt.insertion.suffix, opt.insertion.schedule,
          config_.predicted_std, instance_->num_time_intervals,
          instance_->horizon_minutes, config_.divergence, &st_scratch_);
    } else {
      opt.st_score = 0.0;
    }
  }
}

bool Environment::AdvanceToDecision() {
  DPDP_CHECK(in_episode_);
  DPDP_CHECK(!decision_pending_);
  // Orders are pre-sorted by creation time (canonical form); Algorithm 1
  // processes each immediately on arrival, or — with buffering enabled —
  // at the end of the fixed window containing its creation time.
  while (next_order_ < instance_->orders.size()) {
    const Order& order = instance_->orders[next_order_];
    double decision_time = order.create_time_min;
    if (config_.buffer_window_min > 0.0) {
      const double w = config_.buffer_window_min;
      decision_time =
          (std::floor(order.create_time_min / w) + 1.0) * w;
    }
    response_sum_ += decision_time - order.create_time_min;
    ProcessDisruptionsUntil(decision_time, &result_);
    if (cancelled_[order.id] != 0) {
      // Cancelled while waiting in the buffer: never dispatched.
      dispatched_[order.id] = 1;
      ++result_.num_unserved;
      ++result_.num_cancelled;
      result_.skipped_orders.push_back({order.id, SkipReason::kCancelled});
      ++next_order_;
      continue;
    }
    BuildContext(order, decision_time);
    dispatched_[order.id] = 1;
    if (ctx_.num_feasible == 0) {
      ++result_.num_unserved;
      result_.skipped_orders.push_back(
          {order.id, SkipReason::kNoFeasibleVehicle});
      ++next_order_;
      continue;
    }
    decision_pending_ = true;
    return true;
  }
  Finish();
  return false;
}

const DispatchContext& Environment::ObserveDecision() const {
  DPDP_CHECK(ctx_.order != nullptr);
  return ctx_;
}

int Environment::Apply(int vehicle, double decision_seconds) {
  DPDP_CHECK(decision_pending_);
  decision_pending_ = false;
  const Order& order = *ctx_.order;
  result_.decision_wall_seconds += decision_seconds;
  ++result_.num_decisions;
  Metrics().decisions->Add();
  Metrics().decision_latency->Record(decision_seconds);
  int chosen = vehicle;
  const bool invalid_choice =
      chosen < 0 || chosen >= static_cast<int>(ctx_.options.size()) ||
      !ctx_.options[chosen].feasible;
  const bool over_budget = config_.decision_time_budget_s > 0.0 &&
                           decision_seconds > config_.decision_time_budget_s;
  if (invalid_choice || over_budget) {
    // Graceful degradation: an agent emitting garbage (NaN scores, an
    // infeasible index) or blowing the latency budget must not sink the
    // episode — Baseline 1 dispatches this order instead.
    chosen = GreedyInsertionFallback(ctx_);
    ++result_.num_degraded_decisions;
    Metrics().degraded->Add();
  }

  // The vehicle copies the chosen suffix (or the local search's result)
  // straight from where it lies.
  const std::vector<Stop>& chosen_suffix =
      ctx_.options[chosen].insertion.suffix;
  std::span<const Stop> new_suffix = chosen_suffix;
  LocalSearchResult improved;
  if (config_.local_search_passes > 0) {
    vehicles_[chosen].MakeAnchor(&anchor_);
    improved = ImproveSuffixByReinsertion(
        planner_, anchor_, chosen_suffix, vehicles_[chosen].depot(),
        config_.local_search_passes, &vehicles_[chosen].config());
    result_.local_search_km_saved += improved.improvement();
    new_suffix = improved.suffix;
  }
  vehicles_[chosen].ApplyNewSuffix(new_suffix, /*serves_order=*/true);
  result_.sum_incremental_length +=
      ctx_.options[chosen].incremental_length;
  ++result_.num_served;
  assigned_to_[order.id] = chosen;
  if (config_.record_plan) result_.order_assignment[order.id] = chosen;
  ++next_order_;
  return chosen;
}

void Environment::Finish() {
  in_episode_ = false;
  // Faults scheduled after the last decision still hit the executing fleet
  // (e.g. a breakdown that forces a late re-plan).
  ProcessDisruptionsUntil(std::numeric_limits<double>::infinity(), &result_);

  double hetero_cost = 0.0;
  for (VehicleState& vehicle : vehicles_) {
    const double length = vehicle.FinishRoute();
    if (vehicle.used()) {
      result_.nuv += 1.0;
      result_.total_travel_length += length;
      hetero_cost += vehicle.config().fixed_cost +
                     vehicle.config().cost_per_km * length;
    }
    if (config_.record_plan) result_.routes.push_back(vehicle.stops());
  }
  if (instance_->vehicle_profiles.empty()) {
    // Homogeneous fleet: keep the original aggregate formula exactly — the
    // per-vehicle accumulation above is mathematically equal but not
    // bit-identical (floating-point association), and the determinism
    // goldens pin this value.
    const VehicleConfig& cfg = instance_->vehicle_config;
    result_.total_cost = cfg.fixed_cost * result_.nuv +
                         cfg.cost_per_km * result_.total_travel_length;
  } else {
    result_.total_cost = hetero_cost;
  }
  result_.mean_response_min =
      result_.num_orders > 0
          ? response_sum_ / static_cast<double>(result_.num_orders)
          : 0.0;
  ++episodes_run_;
  SimMetrics& metrics = Metrics();
  metrics.episodes->Add();
  metrics.orders_served->Add(static_cast<uint64_t>(result_.num_served));
  metrics.orders_unserved->Add(static_cast<uint64_t>(result_.num_unserved));
  metrics.breakdowns->Add(static_cast<uint64_t>(result_.num_breakdowns));
  metrics.cancellations->Add(static_cast<uint64_t>(result_.num_cancelled));
  metrics.replanned->Add(static_cast<uint64_t>(result_.num_replanned));
}

void Environment::ProcessDisruptionsUntil(double now, EpisodeResult* result) {
  while (next_event_ < events_.size() && events_[next_event_].time <= now) {
    const DisruptionEvent& event = events_[next_event_];
    switch (event.kind) {
      case DisruptionKind::kBreakdown:
        ApplyBreakdown(event, result);
        break;
      case DisruptionKind::kCancellation:
        ApplyCancellation(event, result);
        break;
      case DisruptionKind::kTravelInflation: {
        VehicleState& vehicle = vehicles_[event.vehicle];
        vehicle.AdvanceTo(event.time);
        vehicle.SetTravelTimeScale(event.factor);
        result->disruption_trace.push_back({event, 0, 0, false});
        break;
      }
    }
    ++next_event_;
  }
}

void Environment::ApplyBreakdown(const DisruptionEvent& event,
                                 EpisodeResult* result) {
  VehicleState& vehicle = vehicles_[event.vehicle];
  vehicle.AdvanceTo(event.time);
  vehicle.HoldUntil(event.time + event.duration_min);
  ++result->num_breakdowns;
  AppliedDisruption applied{event, 0, 0, false};

  // No interference: the committed prefix (including the stop currently
  // being driven to / served) executes as planned; only orders whose
  // pickup is still in the free suffix can be pulled off the vehicle. The
  // kept stops are copied out of the suffix view before the route changes.
  const std::span<const Stop> suffix = vehicle.FreeSuffix();
  std::unordered_set<int> extract_ids;
  for (const Stop& stop : suffix) {
    if (stop.type == StopType::kPickup) extract_ids.insert(stop.order_id);
  }
  if (extract_ids.empty()) {
    result->disruption_trace.push_back(applied);
    return;
  }
  std::vector<Stop> keep;
  for (const Stop& stop : suffix) {
    if (extract_ids.count(stop.order_id) == 0) keep.push_back(stop);
  }
  vehicle.ApplyNewSuffix(keep, /*serves_order=*/false);
  vehicle.NoteOrdersRemoved(static_cast<int>(extract_ids.size()));

  // Re-plan the extracted orders in ascending id (deterministic) onto the
  // healthiest fleet member by Baseline 1's rule.
  std::vector<int> ids(extract_ids.begin(), extract_ids.end());
  std::sort(ids.begin(), ids.end());
  for (int order_id : ids) {
    const Order& order = instance_->order(order_id);
    int best = -1;
    double best_incremental = std::numeric_limits<double>::infinity();
    Insertion insertion;
    Insertion best_insertion;
    for (size_t v = 0; v < vehicles_.size(); ++v) {
      if (static_cast<int>(v) == event.vehicle) continue;
      VehicleState& candidate = vehicles_[v];
      candidate.AdvanceTo(event.time);
      if (candidate.hold_until() > event.time + 1e-9) continue;
      candidate.MakeAnchor(&anchor_);
      if (!planner_.BestInsertion(anchor_, candidate.FreeSuffix(),
                                  candidate.depot(), order, &insertion,
                                  &candidate.config())) {
        continue;
      }
      if (insertion.incremental_length < best_incremental) {
        best_incremental = insertion.incremental_length;
        best = static_cast<int>(v);
        std::swap(best_insertion, insertion);
      }
    }
    if (best >= 0) {
      vehicles_[best].ApplyNewSuffix(best_insertion.suffix,
                                     /*serves_order=*/true);
      assigned_to_[order_id] = best;
      if (config_.record_plan) result->order_assignment[order_id] = best;
      ++applied.orders_replanned;
      ++result->num_replanned;
    } else {
      // Nobody can absorb it: the order is lost to the breakdown.
      assigned_to_[order_id] = -1;
      if (config_.record_plan) result->order_assignment[order_id] = -1;
      --result->num_served;
      ++result->num_unserved;
      result->skipped_orders.push_back(
          {order_id, SkipReason::kBreakdownDropped});
      ++applied.orders_dropped;
    }
  }
  result->disruption_trace.push_back(applied);
}

void Environment::ApplyCancellation(const DisruptionEvent& event,
                                    EpisodeResult* result) {
  const int order_id = event.order;
  AppliedDisruption applied{event, 0, 0, false};
  if (dispatched_[order_id] == 0) {
    // Not yet dispatched (buffering window): mark so the decision loop
    // skips it.
    cancelled_[order_id] = 1;
    result->disruption_trace.push_back(applied);
    return;
  }
  const int v = assigned_to_[order_id];
  if (v < 0) {
    // Already unserved (skipped or dropped earlier): nothing to undo.
    applied.ignored = true;
    result->disruption_trace.push_back(applied);
    return;
  }
  VehicleState& vehicle = vehicles_[v];
  vehicle.AdvanceTo(event.time);
  // A view: the kept stops are copied out before the route changes.
  const std::span<const Stop> suffix = vehicle.FreeSuffix();
  bool pickup_free = false;
  for (const Stop& stop : suffix) {
    if (stop.order_id == order_id && stop.type == StopType::kPickup) {
      pickup_free = true;
      break;
    }
  }
  if (!pickup_free) {
    // The pickup is committed or already served — under no interference
    // the delivery must still run, so the cancel arrives too late.
    applied.ignored = true;
    result->disruption_trace.push_back(applied);
    return;
  }
  std::vector<Stop> keep;
  for (const Stop& stop : suffix) {
    if (stop.order_id != order_id) keep.push_back(stop);
  }
  vehicle.ApplyNewSuffix(keep, /*serves_order=*/false);
  vehicle.NoteOrdersRemoved(1);
  assigned_to_[order_id] = -1;
  if (config_.record_plan) result->order_assignment[order_id] = -1;
  --result->num_served;
  ++result->num_unserved;
  ++result->num_cancelled;
  result->skipped_orders.push_back({order_id, SkipReason::kCancelled});
  result->disruption_trace.push_back(applied);
}

EpisodeResult RunEpisode(Environment* env, Dispatcher* dispatcher) {
  DPDP_TRACE_SPAN("sim.episode");
  DPDP_CHECK(env != nullptr && dispatcher != nullptr);
  env->Reset();
  while (env->AdvanceToDecision()) {
    const DispatchContext& context = env->ObserveDecision();
    WallTimer timer;
    int chosen;
    {
      DPDP_TRACE_SPAN("sim.choose_vehicle");
      chosen = dispatcher->Act(context);
    }
    dispatcher->Observe(context, env->Apply(chosen, timer.ElapsedSeconds()));
  }
  const EpisodeResult result = env->result();
  dispatcher->Learn(result);
  return result;
}

nn::Matrix Environment::LastCapacityDistribution() const {
  nn::Matrix cap(instance_->network->num_factories(),
                 instance_->num_time_intervals);
  for (const VehicleState& vehicle : vehicles_) {
    for (const VisitRecord& visit : vehicle.visits()) {
      AddCapacityVisit(*instance_->network, visit.node, visit.arrival,
                       visit.residual_capacity,
                       instance_->num_time_intervals,
                       instance_->horizon_minutes, &cap);
    }
  }
  return cap;
}

}  // namespace dpdp
