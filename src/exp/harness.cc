#include "exp/harness.h"

#include <algorithm>
#include <cstdint>

#include "obs/trace.h"
#include "rl/actor_critic.h"
#include "rl/config.h"
#include "rl/dqn_agent.h"
#include "util/rng.h"
#include "util/timer.h"

namespace dpdp {

DpdpDataset::Config StandardDatasetConfig(uint64_t seed,
                                          double mean_orders_per_day,
                                          double min_window_slack_min,
                                          double max_window_slack_min) {
  // Calibration note: window tightness, speed and per-stop service time
  // are set so the fleet pressure matches the paper's reported scales
  // (Fig. 6: ~26-50 used vehicles for 50 vehicles / 150 orders).
  DpdpDataset::Config config;
  config.campus.num_factories = 27;
  config.campus.num_depots = 2;
  config.campus.seed = seed;
  config.orders.mean_orders_per_day = mean_orders_per_day;
  config.orders.min_window_slack_min = min_window_slack_min;
  config.orders.max_window_slack_min = max_window_slack_min;
  config.vehicle.capacity = 100.0;
  config.vehicle.fixed_cost = 300.0;
  config.vehicle.cost_per_km = 2.0;
  config.vehicle.speed_kmph = 30.0;
  config.vehicle.service_time_min = 10.0;
  config.orders.speed_kmph = config.vehicle.speed_kmph;
  config.orders.service_time_min = config.vehicle.service_time_min;
  config.seed = seed;
  return config;
}

std::unique_ptr<Agent> MakeAgentByName(const std::string& method,
                                       uint64_t seed) {
  if (method == "AC") {
    AgentConfig c = MakeDqnConfig(seed);  // Vanilla AC: no graph, no ST.
    return std::make_unique<ActorCriticAgent>(c, "AC");
  }
  if (method == "Graph-AC") {
    AgentConfig c = MakeDgnConfig(seed);  // Relational actor/critic.
    return std::make_unique<ActorCriticAgent>(c, "Graph-AC");
  }
  AgentConfig c;
  if (method == "DQN") {
    c = MakeDqnConfig(seed);
  } else if (method == "DDQN") {
    c = MakeDdqnConfig(seed);
  } else if (method == "ST-DDQN") {
    c = MakeStDdqnConfig(seed);
  } else if (method == "DGN") {
    c = MakeDgnConfig(seed);
  } else if (method == "DDGN") {
    c = MakeDdgnConfig(seed);
  } else if (method == "ST-DDGN") {
    c = MakeStDdgnConfig(seed);
  } else {
    DPDP_CHECK(false && "unknown DRL method name");
  }
  return std::make_unique<DqnFleetAgent>(c, method);
}

const std::vector<std::string>& ComparisonDrlMethods() {
  static const std::vector<std::string>* methods =
      new std::vector<std::string>{"DQN", "AC", "DGN", "ST-DDGN"};
  return *methods;
}

const std::vector<std::string>& AblationModels() {
  static const std::vector<std::string>* models =
      new std::vector<std::string>{"DDQN", "ST-DDQN", "DDGN", "ST-DDGN"};
  return *models;
}

DrlOutcome TrainEvalOnInstance(const Instance& instance,
                               const nn::Matrix& predicted_std,
                               const std::string& method, uint64_t seed,
                               int episodes,
                               const SimulatorConfig* base_sim_config) {
  SimulatorConfig sim_config =
      base_sim_config != nullptr ? *base_sim_config : SimulatorConfig{};
  sim_config.predicted_std = predicted_std;
  Environment env(&instance, sim_config);

  DrlOutcome out;
  out.method = method;
  std::unique_ptr<Agent> agent = MakeAgentByName(method, seed);

  WallTimer timer;
  agent->set_training(true);
  TrainOptions options;
  options.episodes = episodes;
  out.curve = RunEpisodes(&env, agent.get(), options);
  out.train_seconds = timer.ElapsedSeconds();

  agent->set_training(false);
  agent->FinalizeTraining();
  out.eval = RunEpisode(&env, agent.get());
  out.eval_decision_seconds = out.eval.decision_wall_seconds;
  return out;
}

Instance SampleInstanceInWindow(DpdpDataset* dataset,
                                const std::string& name, int num_orders,
                                int num_vehicles, int day_lo, int day_hi,
                                double t_lo_min, double t_hi_min,
                                uint64_t seed) {
  DPDP_CHECK(dataset != nullptr);
  std::vector<Order> pool;
  for (int d = day_lo; d <= day_hi; ++d) {
    for (const Order& o : dataset->Day(d)) {
      if (o.create_time_min >= t_lo_min && o.create_time_min < t_hi_min) {
        pool.push_back(o);
      }
    }
  }
  DPDP_CHECK(!pool.empty());
  Rng rng(seed);
  rng.Shuffle(&pool);
  Instance inst;
  inst.name = name;
  inst.network = dataset->network();
  inst.vehicle_config = dataset->config().vehicle;
  inst.num_time_intervals = dataset->config().num_intervals;
  inst.horizon_minutes = dataset->config().horizon_min;
  const auto& depot_ids = dataset->network()->depot_ids();
  inst.vehicle_depots.resize(num_vehicles);
  for (int v = 0; v < num_vehicles; ++v) {
    inst.vehicle_depots[v] = depot_ids[v % depot_ids.size()];
  }
  const size_t take = std::min<size_t>(pool.size(), num_orders);
  inst.orders.assign(pool.begin(), pool.begin() + take);
  CanonicalizeOrders(&inst.orders);
  DPDP_CHECK_OK(ValidateInstance(inst));
  return inst;
}

MethodSummary RunBaseline(const Instance& instance, Dispatcher* baseline,
                          const nn::Matrix& predicted_std) {
  SimulatorConfig sim_config;
  sim_config.predicted_std = predicted_std;
  Environment env(&instance, sim_config);
  const EpisodeResult result = RunEpisode(&env, baseline);
  MethodSummary summary;
  summary.method = baseline->name();
  summary.nuv.push_back(result.nuv);
  summary.tc.push_back(result.total_cost);
  summary.wall.push_back(result.decision_wall_seconds);
  summary.metrics.Absorb(result);
  return summary;
}

MethodSummary RunDrlMethod(const Instance& instance,
                           const nn::Matrix& predicted_std,
                           const std::string& method, int episodes,
                           int num_seeds, uint64_t seed_base,
                           ThreadPool* pool,
                           const SimulatorConfig* base_sim_config,
                           const RetryPolicy& retry_policy) {
  MethodSummary summary;
  summary.method = method;
  // Slots are pre-sized and each task writes only its own index, so the
  // aggregation is race-free and the results come out in seed order no
  // matter how the tasks are scheduled. Failed seeds are compacted out
  // afterwards, preserving that order.
  std::vector<double> nuv(num_seeds);
  std::vector<double> tc(num_seeds);
  std::vector<double> wall(num_seeds);
  std::vector<MethodSummary::MetricsRollup> rollup(num_seeds);
  std::vector<uint8_t> ok(num_seeds, 0);
  std::vector<std::string> errors(num_seeds);
  if (pool == nullptr) pool = GlobalThreadPool();
  pool->ParallelFor(num_seeds, [&](int s) {
    DPDP_TRACE_SPAN("exp.seed_run");
    // The retry wrapper absorbs exceptions (so one bad seed cannot abort
    // the whole sweep via ParallelFor's rethrow) and backs off between
    // transient failures.
    const Status status = RunWithRetry(
        [&]() -> Status {
          const DrlOutcome outcome = TrainEvalOnInstance(
              instance, predicted_std, method, Rng::DeriveSeed(seed_base, s),
              episodes, base_sim_config);
          nuv[s] = outcome.eval.nuv;
          tc[s] = outcome.eval.total_cost;
          wall[s] = outcome.eval_decision_seconds;
          // Re-rolled on retry (assignment, not +=) so a transient failure
          // followed by success cannot double-count its episodes.
          MethodSummary::MetricsRollup r;
          for (const EpisodeResult& e : outcome.curve.episodes) r.Absorb(e);
          r.Absorb(outcome.eval);
          rollup[s] = r;
          return Status::OK();
        },
        retry_policy);
    if (status.ok()) {
      ok[s] = 1;
    } else {
      errors[s] = status.ToString();
    }
  });
  for (int s = 0; s < num_seeds; ++s) {
    if (ok[s] != 0) {
      summary.nuv.push_back(nuv[s]);
      summary.tc.push_back(tc[s]);
      summary.wall.push_back(wall[s]);
      summary.metrics.Absorb(rollup[s]);
    } else {
      summary.seed_errors.push_back({s, errors[s]});
    }
  }
  return summary;
}

}  // namespace dpdp
