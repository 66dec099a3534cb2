#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/greedy_baselines.h"
#include "rl/actor_critic.h"
#include "rl/config.h"
#include "rl/dqn_agent.h"
#include "rl/replay.h"
#include "rl/state.h"
#include "rl/trainer.h"
#include "sim/environment.h"
#include "tests/test_util.h"

namespace dpdp {
namespace {

using testing::MakeOrder;
using testing::MakeTestInstance;

/// A day of 8 orders where packing everything onto few vehicles is clearly
/// optimal (generous windows, shared corridors).
Instance TrainingInstance() {
  std::vector<Order> orders;
  for (int i = 0; i < 8; ++i) {
    const int pickup = 1 + (i % 2);       // F1 or F2.
    const int delivery = pickup == 1 ? 2 : 1;
    const double t = 40.0 * i;
    orders.push_back(MakeOrder(i, pickup, delivery, 10.0, t, t + 300.0));
  }
  return MakeTestInstance(orders, /*num_vehicles=*/4);
}

AgentConfig FastConfig(bool graph, uint64_t seed) {
  AgentConfig c = graph ? MakeStDdgnConfig(seed) : MakeDdqnConfig(seed);
  c.hidden_dim = 16;
  c.epsilon_decay_episodes = 15;
  c.updates_per_episode = 4;
  return c;
}

TEST(DqnAgent, UntrainedAgentIsValidDispatcher) {
  const Instance inst = TrainingInstance();
  Environment env(&inst);
  DqnFleetAgent agent(FastConfig(false, 1), "DDQN");
  const EpisodeResult r = RunEpisode(&env, &agent);
  EXPECT_TRUE(r.all_served());
  EXPECT_GE(r.nuv, 1.0);
}

TEST(DqnAgent, TrainingImprovesOverUntrained) {
  const Instance inst = TrainingInstance();
  Environment env(&inst);

  DqnFleetAgent untrained(FastConfig(false, 5), "DDQN");
  const double tc_untrained = RunEpisode(&env, &untrained).total_cost;

  DqnFleetAgent agent(FastConfig(false, 5), "DDQN");
  agent.set_training(true);
  TrainOptions options;
  options.episodes = 30;
  RunEpisodes(&env, &agent, options);
  agent.set_training(false);
  const double tc_trained = RunEpisode(&env, &agent).total_cost;

  EXPECT_LE(tc_trained, tc_untrained + 1e-9);
  // The optimum here is one vehicle shuttling F1 <-> F2; training should
  // get within striking distance of the greedy baseline.
  MinIncrementalLengthDispatcher baseline;
  const double tc_baseline = RunEpisode(&env, &baseline).total_cost;
  EXPECT_LE(tc_trained, 2.0 * tc_baseline);
}

TEST(DqnAgent, GraphVariantTrains) {
  const Instance inst = TrainingInstance();
  Environment env(&inst);
  DqnFleetAgent agent(FastConfig(true, 7), "ST-DDGN");
  agent.set_training(true);
  TrainOptions options;
  options.episodes = 20;
  const TrainingCurve curve = RunEpisodes(&env, &agent, options);
  EXPECT_EQ(curve.nuv.size(), 20u);
  EXPECT_EQ(agent.episodes_trained(), 20);
  // Late-training NUV should not exceed early-training NUV on average.
  EXPECT_LE(TrainingCurve::TailMean(curve.nuv, 5),
            TrainingCurve::TailMean(std::vector<double>(
                curve.nuv.begin(), curve.nuv.begin() + 5), 5) + 1e-9);
}

TEST(DqnAgent, EpsilonDecaysLinearly) {
  const Instance inst = TrainingInstance();
  Environment env(&inst);
  AgentConfig config = FastConfig(false, 9);
  config.epsilon_start = 1.0;
  config.epsilon_end = 0.1;
  config.epsilon_decay_episodes = 10;
  DqnFleetAgent agent(config, "DDQN");
  agent.set_training(true);
  EXPECT_DOUBLE_EQ(agent.epsilon(), 1.0);
  TrainOptions options;
  options.episodes = 5;
  RunEpisodes(&env, &agent, options);
  EXPECT_NEAR(agent.epsilon(), 0.55, 1e-9);
  options.episodes = 10;
  RunEpisodes(&env, &agent, options);
  EXPECT_NEAR(agent.epsilon(), 0.1, 1e-9);  // Clamped at end value.
}

TEST(DqnAgent, EvalModeIsDeterministic) {
  const Instance inst = TrainingInstance();
  Environment env(&inst);
  DqnFleetAgent agent(FastConfig(false, 11), "DDQN");
  const EpisodeResult a = RunEpisode(&env, &agent);
  const EpisodeResult b = RunEpisode(&env, &agent);
  EXPECT_DOUBLE_EQ(a.total_cost, b.total_cost);
}

TEST(DqnAgent, SaveLoadReproducesPolicy) {
  const Instance inst = TrainingInstance();
  Environment env(&inst);
  DqnFleetAgent agent(FastConfig(true, 13), "ST-DDGN");
  agent.set_training(true);
  TrainOptions options;
  options.episodes = 5;
  RunEpisodes(&env, &agent, options);
  agent.set_training(false);
  const double tc = RunEpisode(&env, &agent).total_cost;

  std::stringstream buffer;
  agent.Save(&buffer);
  DqnFleetAgent restored(FastConfig(true, 999), "ST-DDGN");
  ASSERT_TRUE(restored.Load(&buffer));
  EXPECT_DOUBLE_EQ(RunEpisode(&env, &restored).total_cost, tc);
}

TEST(DqnAgent, QValuesMarkInfeasibleMinusInfinity) {
  // One order too heavy for a loaded vehicle forces infeasibility paths.
  const Instance inst = TrainingInstance();
  SimulatorConfig sc;
  Environment env(&inst, sc);

  class Probe : public Dispatcher {
   public:
    explicit Probe(DqnFleetAgent* agent) : agent_(agent) {}
    const char* name() const override { return "probe"; }
    int Act(const DispatchContext& ctx) override {
      const std::vector<double> q = agent_->QValues(ctx);
      EXPECT_EQ(q.size(), ctx.options.size());
      for (size_t v = 0; v < q.size(); ++v) {
        if (!ctx.options[v].feasible) {
          EXPECT_TRUE(std::isinf(q[v]) && q[v] < 0);
        } else {
          EXPECT_TRUE(std::isfinite(q[v]));
        }
      }
      for (const VehicleOption& o : ctx.options) {
        if (o.feasible) return o.vehicle;
      }
      return -1;
    }
    DqnFleetAgent* agent_;
  };
  DqnFleetAgent agent(FastConfig(false, 15), "DDQN");
  Probe probe(&agent);
  (void)RunEpisode(&env, &probe);
}

TEST(DqnAgent, LiteralRewardFlagChangesRewards) {
  // Smoke test: the literal Eq.(6) variant still trains and dispatches.
  const Instance inst = TrainingInstance();
  Environment env(&inst);
  AgentConfig config = FastConfig(false, 17);
  config.literal_used_flag_cost = true;
  DqnFleetAgent agent(config, "DDQN-literal");
  agent.set_training(true);
  TrainOptions options;
  options.episodes = 10;
  RunEpisodes(&env, &agent, options);
  agent.set_training(false);
  EXPECT_TRUE(RunEpisode(&env, &agent).all_served());
}

TEST(DqnAgent, BestWeightsSnapshotRestores) {
  const Instance inst = TrainingInstance();
  Environment env(&inst);
  AgentConfig config = FastConfig(false, 31);
  config.track_best_weights = true;
  config.best_weights_max_epsilon = 1.0;  // Every episode is a candidate.
  DqnFleetAgent agent(config, "DDQN");
  agent.set_training(true);
  TrainOptions options;
  options.episodes = 12;
  const TrainingCurve curve = RunEpisodes(&env, &agent, options);
  agent.set_training(false);
  agent.FinalizeTraining();
  const double tc_restored = RunEpisode(&env, &agent).total_cost;
  // The greedy policy from restored weights should not be dramatically
  // worse than the best training episode (training episodes include
  // exploration noise, so exact equality is not expected).
  const double best_training =
      *std::min_element(curve.total_cost.begin(), curve.total_cost.end());
  EXPECT_LE(tc_restored, 2.0 * best_training);
}

TEST(DqnAgent, FinalizeTrainingWithoutSnapshotIsNoop) {
  const Instance inst = TrainingInstance();
  Environment env(&inst);
  AgentConfig config = FastConfig(false, 33);
  config.track_best_weights = false;
  DqnFleetAgent agent(config, "DDQN");
  const double before = RunEpisode(&env, &agent).total_cost;
  agent.FinalizeTraining();  // No snapshot exists: must not change weights.
  EXPECT_DOUBLE_EQ(RunEpisode(&env, &agent).total_cost, before);
}

// ---------------------------------------------------------- ActorCritic --

/// `m` feasible vehicles with random features at random positions.
FleetState RandomFleetState(int m, Rng* rng) {
  FleetState state;
  state.features = nn::Matrix(m, kStateFeatures);
  state.positions = nn::Matrix(m, 2);
  state.feasible.assign(static_cast<size_t>(m), 1);
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < kStateFeatures; ++c) {
      state.features(r, c) = rng->Uniform();
    }
    state.positions(r, 0) = rng->Uniform(0, 8);
    state.positions(r, 1) = rng->Uniform(0, 8);
  }
  return state;
}

/// Loads `agent`'s own weights back with the output bias, the last double
/// of the blob, set to NaN: every Q the network emits is then NaN.
void PoisonOutputBias(DqnFleetAgent* agent) {
  std::stringstream saved;
  agent->Save(&saved);
  std::string blob = saved.str();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(&blob[blob.size() - sizeof nan], &nan, sizeof nan);
  std::stringstream poisoned(blob);
  ASSERT_TRUE(agent->Load(&poisoned));
}

TEST(DqnAgentDeathTest, NonFiniteNextStateQAbortsTraining) {
  // A target read at entry -1 would land on another item's row; training
  // must stop and name the non-finite Q instead.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Rng rng(41);
  std::vector<EpisodeStep> steps(3);
  for (EpisodeStep& step : steps) {
    step.state = StoredFleetState::FromFleetState(RandomFleetState(6, &rng));
    step.action = 2;
    step.instant_reward = -1.0;
  }
  const std::vector<Transition> transitions = FoldEpisodeRewards(steps);
  const std::vector<const Transition*> batch = {&transitions[0],
                                                &transitions[1]};
  AgentConfig parallel = FastConfig(true, 43);
  parallel.parallel_batch = true;
  for (const AgentConfig& config :
       {FastConfig(false, 43), MakeDqnConfig(43), FastConfig(true, 43),
        MakeDgnConfig(43), parallel}) {
    DqnFleetAgent agent(config, "poisoned");
    PoisonOutputBias(&agent);
    EXPECT_DEATH(agent.TrainOnBatch(batch),
                 "every feasible next-state Q is non-finite");
  }
}

TEST(ActorCritic, UntrainedAgentIsValidDispatcher) {
  const Instance inst = TrainingInstance();
  Environment env(&inst);
  ActorCriticAgent agent(FastConfig(false, 19), "AC");
  const EpisodeResult r = RunEpisode(&env, &agent);
  EXPECT_TRUE(r.all_served());
}

TEST(ActorCritic, PolicySumsToOneOverFeasible) {
  const Instance inst = TrainingInstance();
  Environment env(&inst);
  ActorCriticAgent agent(FastConfig(false, 21), "AC");

  class Probe : public Dispatcher {
   public:
    explicit Probe(ActorCriticAgent* agent) : agent_(agent) {}
    const char* name() const override { return "probe"; }
    int Act(const DispatchContext& ctx) override {
      const std::vector<double> pi = agent_->Policy(ctx);
      double sum = 0.0;
      for (size_t v = 0; v < pi.size(); ++v) {
        if (!ctx.options[v].feasible) {
          EXPECT_DOUBLE_EQ(pi[v], 0.0);
        }
        sum += pi[v];
      }
      EXPECT_NEAR(sum, 1.0, 1e-9);
      for (const VehicleOption& o : ctx.options) {
        if (o.feasible) return o.vehicle;
      }
      return -1;
    }
    ActorCriticAgent* agent_;
  };
  Probe probe(&agent);
  (void)RunEpisode(&env, &probe);
}

TEST(ActorCritic, TrainingRunsAndTracksEpisodes) {
  const Instance inst = TrainingInstance();
  Environment env(&inst);
  ActorCriticAgent agent(FastConfig(false, 23), "AC");
  agent.set_training(true);
  TrainOptions options;
  options.episodes = 15;
  const TrainingCurve curve = RunEpisodes(&env, &agent, options);
  EXPECT_EQ(agent.episodes_trained(), 15);
  EXPECT_EQ(curve.total_cost.size(), 15u);
  // Losses are finite after training.
  EXPECT_TRUE(std::isfinite(agent.last_policy_loss()));
  EXPECT_TRUE(std::isfinite(agent.last_value_loss()));
}

TEST(ActorCritic, GraphVariantDispatchesAndTrains) {
  const Instance inst = TrainingInstance();
  Environment env(&inst);
  AgentConfig config = FastConfig(true, 41);  // Graph flags on.
  ActorCriticAgent agent(config, "Graph-AC");
  EXPECT_TRUE(RunEpisode(&env, &agent).all_served());
  agent.set_training(true);
  TrainOptions options;
  options.episodes = 8;
  RunEpisodes(&env, &agent, options);
  agent.set_training(false);
  EXPECT_TRUE(RunEpisode(&env, &agent).all_served());
  EXPECT_EQ(agent.episodes_trained(), 8);
}

// -------------------------------------------------------------- Trainer --

TEST(Trainer, RecordsCapacityDiffWhenDemandGiven) {
  const Instance inst = TrainingInstance();
  Environment env(&inst);
  MinIncrementalLengthDispatcher baseline;
  TrainOptions options;
  options.episodes = 3;
  options.demand_for_diff = nn::Matrix(4, 144, 1.0);
  const TrainingCurve curve = RunEpisodes(&env, &baseline, options);
  EXPECT_EQ(curve.capacity_diff.size(), 3u);
  EXPECT_GT(curve.capacity_diff[0], 0.0);
  // Deterministic baseline: identical every episode.
  EXPECT_DOUBLE_EQ(curve.capacity_diff[0], curve.capacity_diff[2]);
}

TEST(Trainer, TailMeanHandlesShortSeries) {
  EXPECT_DOUBLE_EQ(TrainingCurve::TailMean({}, 5), 0.0);
  EXPECT_DOUBLE_EQ(TrainingCurve::TailMean({2.0, 4.0}, 5), 3.0);
  EXPECT_DOUBLE_EQ(TrainingCurve::TailMean({1.0, 2.0, 3.0, 4.0}, 2), 3.5);
}

}  // namespace
}  // namespace dpdp
