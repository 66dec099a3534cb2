// Correctness suite for the src/train/ Ape-X actor-learner fabric: the
// learner's checkpoint roundtrip and its refusals, the 1-vs-2-vs-4-actor
// deterministic training golden (bit-identical final weights for any actor
// count), the kill-the-learner checkpoint-resume golden, greedy
// fabric-vs-local parity, async mode's commit-once accounting, the shared
// epsilon schedule, RunEpisode against a raw step loop, the episode
// recorder. Runs under TSan in CI
// alongside the serve suites — the async inbox and the actor barrier must
// hold for arbitrary interleavings.

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "rl/config.h"
#include "rl/dqn_agent.h"
#include "rl/replay.h"
#include "rl/state.h"
#include "sim/environment.h"
#include "test_util.h"
#include "train/actor.h"
#include "train/apex.h"
#include "train/learner.h"
#include "util/rng.h"
#include "util/status.h"

namespace dpdp::train {
namespace {

using dpdp::testing::ExpectSameEpisode;
using dpdp::testing::MakeOrder;
using dpdp::testing::MakeTestInstance;

Instance MakeTrainInstance(int num_orders = 8, int num_vehicles = 3) {
  std::vector<Order> orders;
  orders.reserve(num_orders);
  Rng rng(77);
  for (int i = 0; i < num_orders; ++i) {
    const int pickup = 1 + rng.UniformInt(2);
    const int delivery = 3 + rng.UniformInt(2);
    orders.push_back(MakeOrder(i, pickup, delivery, 2.0 + rng.UniformInt(5),
                               10.0 * i, 700.0 + 10.0 * i));
  }
  return MakeTestInstance(std::move(orders), num_vehicles);
}

/// Small-but-real agent config: every training knob active, sized so a
/// 6-episode run stays sub-second.
AgentConfig MakeTrainAgentConfig(uint64_t seed = 5) {
  AgentConfig config;
  config.hidden_dim = 16;
  config.num_heads = 2;
  config.attention_levels = 1;
  config.num_neighbors = 2;
  config.replay_capacity = 256;
  config.batch_size = 4;
  config.updates_per_episode = 1;
  config.scale_updates_with_episode = false;
  config.epsilon_start = 0.5;
  config.epsilon_end = 0.1;
  config.epsilon_decay_episodes = 6;
  config.target_sync_episodes = 2;
  config.track_best_weights = false;
  config.seed = seed;
  return config;
}

ApexConfig MakeApexConfig() {
  ApexConfig config;
  config.num_actors = 1;
  config.episodes = 6;
  config.sync_every = 2;
  config.deterministic = true;
  config.updates_per_generation = 2;
  config.target_sync_updates = 3;
  config.serve.max_batch = 4;
  config.serve.max_wait_us = 50;
  return config;
}

Transition MakeTaggedTransition(double tag) {
  Transition t;
  t.action = 0;
  t.reward = static_cast<float>(tag);
  t.terminal = true;
  return t;
}

void ExpectSameWeights(const std::vector<nn::Matrix>& a,
                       const std::vector<nn::Matrix>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].rows(), b[i].rows());
    ASSERT_EQ(a[i].cols(), b[i].cols());
    for (int r = 0; r < a[i].rows(); ++r) {
      for (int c = 0; c < a[i].cols(); ++c) {
        ASSERT_EQ(a[i](r, c), b[i](r, c))
            << "param " << i << " (" << r << ", " << c << ")";
      }
    }
  }
}

// --- Learner state ----------------------------------------------------------

constexpr uint64_t kSamplerSeed = 3;
constexpr int kTargetSyncUpdates = 2;

/// The bytes of a learner whose replay holds three tagged episodes.
std::string SavedLearnerState(const AgentConfig& config) {
  serve::ModelServer models(config);
  Learner learner(config, &models, kSamplerSeed, kTargetSyncUpdates);
  for (int e = 0; e < 3; ++e) {
    learner.AddEpisode(
        {MakeTaggedTransition(e), MakeTaggedTransition(e + 0.5)});
  }
  std::ostringstream os;
  EXPECT_TRUE(learner.SaveState(&os).ok());
  return os.str();
}

Status LoadLearnerState(const AgentConfig& config, const std::string& bytes) {
  serve::ModelServer models(config);
  Learner learner(config, &models, kSamplerSeed, kTargetSyncUpdates);
  std::istringstream is(bytes);
  return learner.LoadState(&is);
}

/// Offset of the replay section: the extras magic, the 49-byte sampler
/// state and the two 8-byte counters follow the agent blob.
size_t ReplayOffset(const std::string& bytes) {
  const size_t magic = bytes.find("DPDPLRN2");
  EXPECT_NE(magic, std::string::npos);
  return magic + 8 + 49 + 8 + 8;
}

TEST(LearnerStateTest, SaveLoadRoundtripIsByteExact) {
  const AgentConfig config = MakeTrainAgentConfig();
  const std::string bytes = SavedLearnerState(config);

  serve::ModelServer models(config);
  Learner restored(config, &models, /*sampler_seed=*/99, kTargetSyncUpdates);
  std::istringstream is(bytes);
  ASSERT_TRUE(restored.LoadState(&is).ok());
  EXPECT_EQ(restored.replay_size(), 6);
  std::ostringstream again;
  ASSERT_TRUE(restored.SaveState(&again).ok());
  EXPECT_EQ(again.str(), bytes);
}

TEST(LearnerStateTest, RefusesTheShardedReplayLayout) {
  const AgentConfig config = MakeTrainAgentConfig();
  const std::string bytes = SavedLearnerState(config);
  const size_t replay = ReplayOffset(bytes);
  // The layout before the learner owned its replay: the same agent blob
  // and extras under the DPDPLRN1 magic, then a shard count and one ring
  // per shard.
  std::string old_layout = bytes.substr(0, replay);
  old_layout[bytes.find("DPDPLRN2") + 7] = '1';
  const int32_t shards = 1;
  old_layout.append(reinterpret_cast<const char*>(&shards), sizeof(shards));
  old_layout += bytes.substr(replay);
  EXPECT_FALSE(LoadLearnerState(config, old_layout).ok());
}

TEST(LearnerStateTest, RefusesAStateTruncatedInsideTheReplay) {
  const AgentConfig config = MakeTrainAgentConfig();
  const std::string bytes = SavedLearnerState(config);
  const size_t replay = ReplayOffset(bytes);
  ASSERT_LT(replay + 2, bytes.size());
  for (const size_t cut :
       {replay + 1, (replay + bytes.size()) / 2, bytes.size() - 1}) {
    EXPECT_FALSE(LoadLearnerState(config, bytes.substr(0, cut)).ok())
        << "cut at " << cut << " of " << bytes.size();
  }
}

TEST(LearnerStateTest, RefusesADifferentReplayCapacity) {
  const AgentConfig config = MakeTrainAgentConfig();
  const std::string bytes = SavedLearnerState(config);
  AgentConfig other = config;
  other.replay_capacity = config.replay_capacity / 2;
  EXPECT_FALSE(LoadLearnerState(other, bytes).ok());
  // The learner's own ring saved at another capacity behind an agent blob
  // that matches.
  ReplayBuffer resized(other.replay_capacity);
  resized.Add(MakeTaggedTransition(1.0));
  std::ostringstream ring;
  resized.Save(&ring);
  EXPECT_FALSE(
      LoadLearnerState(config, bytes.substr(0, ReplayOffset(bytes)) +
                                   ring.str())
          .ok());
}

// --- The epsilon schedule ---------------------------------------------------

// The local agent's epsilon after k training episodes is the shared
// schedule at k, bit for bit, inside the decay and past it.
TEST(EpsilonScheduleTest, AgentEpsilonIsEpsilonAtEpisodesTrained) {
  const Instance instance = MakeTrainInstance();
  const AgentConfig config = MakeTrainAgentConfig();
  DqnFleetAgent agent(config, "local");
  agent.set_training(true);
  Environment env(&instance);
  EXPECT_EQ(agent.epsilon(), EpsilonAt(config, 0));
  for (int k = 1; k <= config.epsilon_decay_episodes + 3; ++k) {
    RunEpisode(&env, &agent);
    ASSERT_EQ(agent.episodes_trained(), k);
    EXPECT_EQ(agent.epsilon(), EpsilonAt(config, k)) << "k = " << k;
  }
}

// --- Reward folding and the episode recorder -------------------------------

TEST(FoldEpisodeRewardsTest, FoldsEpisodeMeanIntoEveryStep) {
  std::vector<EpisodeStep> steps(3);
  const double instant[] = {-1.0, -2.0, -6.0};
  for (int i = 0; i < 3; ++i) {
    // Distinct one-vehicle states, so each next_state is identifiable.
    steps[i].state.num_vehicles = 1;
    steps[i].state.features.assign(kStateFeatures, 0.5f * i);
    steps[i].state.feasible = {1};
    steps[i].state.positions = {1.0f * i, 2.0f * i};
    steps[i].action = 0;
    steps[i].instant_reward = instant[i];
  }
  const std::vector<EpisodeStep> expected = steps;
  const std::vector<Transition> folded = FoldEpisodeRewards(std::move(steps));
  ASSERT_EQ(folded.size(), 3u);
  const double mean = (-1.0 - 2.0 - 6.0) / 3.0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(folded[i].reward, static_cast<float>(instant[i] + mean));
    EXPECT_EQ(folded[i].state.features, expected[i].state.features);
    EXPECT_EQ(folded[i].state.positions, expected[i].state.positions);
  }
  // Step i's next_state is step i+1's state; only the last step is
  // terminal, with an empty next_state.
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(folded[i].terminal);
    EXPECT_EQ(folded[i].next_state.num_vehicles, 1);
    EXPECT_EQ(folded[i].next_state.features, expected[i + 1].state.features);
    EXPECT_EQ(folded[i].next_state.feasible, expected[i + 1].state.feasible);
    EXPECT_EQ(folded[i].next_state.positions,
              expected[i + 1].state.positions);
  }
  EXPECT_TRUE(folded[2].terminal);
  EXPECT_TRUE(folded[2].next_state.empty());
}

/// Records through EpisodeRecorder like every learning role, but chooses a
/// feasible vehicle other than the greedy one whenever there is one, and
/// keeps every option's instant reward of each decision for the check.
class NonGreedyRecorder : public Dispatcher {
 public:
  explicit NonGreedyRecorder(const AgentConfig& config) : config_(config) {}
  const char* name() const override { return "non_greedy"; }

  int Act(const DispatchContext& context) override {
    const int greedy = GreedyInsertionFallback(context);
    int chosen = greedy;
    std::vector<double> rewards(context.options.size(), 0.0);
    for (const VehicleOption& option : context.options) {
      if (!option.feasible) continue;
      rewards[option.vehicle] = InstantReward(context, option.vehicle, config_);
      if (chosen == greedy && option.vehicle != greedy) {
        chosen = option.vehicle;
      }
    }
    orders.push_back(context.order->id);
    chosen_vehicles.push_back(chosen);
    option_rewards.push_back(std::move(rewards));
    recorder.Record(BuildFleetState(context, config_));
    return chosen;
  }
  void Observe(const DispatchContext& context, int vehicle) override {
    recorder.Observe(context, vehicle, config_);
  }

  EpisodeRecorder recorder;
  std::vector<int> orders;
  std::vector<int> chosen_vehicles;
  std::vector<std::vector<double>> option_rewards;

 private:
  const AgentConfig config_;
};

TEST(EpisodeRecorderTest, RecordsTheExecutedVehicleNotTheChosenOne) {
  const Instance instance = MakeTrainInstance();
  SimulatorConfig sim_config;
  // Every decision blows the budget, so the greedy fallback executes.
  sim_config.decision_time_budget_s = 1e-12;
  sim_config.record_plan = true;
  Environment env(&instance, sim_config);
  NonGreedyRecorder dispatcher(MakeTrainAgentConfig());
  const EpisodeResult result = RunEpisode(&env, &dispatcher);
  EXPECT_EQ(result.num_degraded_decisions, result.num_decisions);

  const std::vector<EpisodeStep> steps = dispatcher.recorder.TakeSteps();
  ASSERT_EQ(steps.size(), dispatcher.orders.size());
  ASSERT_EQ(static_cast<int>(steps.size()), result.num_decisions);
  int overridden = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    const int executed = result.order_assignment[dispatcher.orders[i]];
    EXPECT_EQ(steps[i].action, executed) << "decision " << i;
    EXPECT_EQ(steps[i].instant_reward,
              dispatcher.option_rewards[i][executed])
        << "decision " << i;
    if (dispatcher.chosen_vehicles[i] != executed) ++overridden;
  }
  EXPECT_GT(overridden, 0);
}

// --- The episode loop ------------------------------------------------------

/// The greedy-insertion rule as a plain Dispatcher (not an Agent).
class GreedyDispatcher : public Dispatcher {
 public:
  const char* name() const override { return "greedy"; }
  int Act(const DispatchContext& context) override {
    return GreedyInsertionFallback(context);
  }
};

TEST(RunEpisodeTest, MatchesRawStepLoop) {
  const Instance instance = MakeTrainInstance();
  Environment looped(&instance);
  GreedyDispatcher greedy;
  const EpisodeResult via_run_episode = RunEpisode(&looped, &greedy);

  Environment env(&instance);
  env.Reset();
  while (env.AdvanceToDecision()) {
    env.Apply(GreedyInsertionFallback(env.ObserveDecision()));
  }
  ExpectSameEpisode(via_run_episode, env.result());
  EXPECT_EQ(via_run_episode.num_orders,
            static_cast<int>(instance.orders.size()));
}

// --- Deterministic actor-count invariance ----------------------------------

TEST(ApexTrainerTest, DeterministicModeIsActorCountInvariant) {
  const Instance instance = MakeTrainInstance();
  const AgentConfig agent_config = MakeTrainAgentConfig();

  std::vector<std::vector<nn::Matrix>> weights;
  std::vector<ApexReport> reports;
  for (const int actors : {1, 2, 4}) {
    ApexConfig config = MakeApexConfig();
    config.num_actors = actors;
    ApexTrainer trainer(&instance, config, agent_config);
    reports.push_back(trainer.Run());
    weights.push_back(trainer.PolicyWeights());
  }

  for (size_t i = 1; i < weights.size(); ++i) {
    ExpectSameWeights(weights[0], weights[i]);
    ASSERT_EQ(reports[0].episodes.size(), reports[i].episodes.size());
    for (size_t e = 0; e < reports[0].episodes.size(); ++e) {
      ExpectSameEpisode(reports[0].episodes[e], reports[i].episodes[e]);
    }
    EXPECT_EQ(reports[0].transitions, reports[i].transitions);
    EXPECT_EQ(reports[0].learner_updates, reports[i].learner_updates);
    EXPECT_EQ(reports[0].final_seq, reports[i].final_seq);
  }
  // The run genuinely trained and the actors picked up published weights.
  EXPECT_GT(reports[0].learner_updates, 0u);
  EXPECT_GE(reports[0].publishes, 1u);
  EXPECT_GE(reports[0].max_model_seq_seen, 1u);
  EXPECT_EQ(reports[0].sheds, 0);
}

// A sharded serving fabric behind the actors must not change the outcome
// (the batching invariant makes the shard count decision-invariant).
TEST(ApexTrainerTest, ServeShardCountIsDecisionInvariant) {
  const Instance instance = MakeTrainInstance();
  const AgentConfig agent_config = MakeTrainAgentConfig();

  ApexConfig single = MakeApexConfig();
  single.num_actors = 2;
  ApexTrainer trainer_single(&instance, single, agent_config);
  trainer_single.Run();

  ApexConfig sharded = MakeApexConfig();
  sharded.num_actors = 2;
  sharded.serve_shards = 2;
  ApexTrainer trainer_sharded(&instance, sharded, agent_config);
  trainer_sharded.Run();

  ExpectSameWeights(trainer_single.PolicyWeights(),
                    trainer_sharded.PolicyWeights());
}

// --- Kill-the-learner checkpoint resume ------------------------------------

TEST(ApexTrainerTest, ResumeFromFabricCheckpointMatchesUninterrupted) {
  const Instance instance = MakeTrainInstance();
  const AgentConfig agent_config = MakeTrainAgentConfig();
  const std::string dir = ::testing::TempDir() + "/apex_resume";

  // Uninterrupted 6-episode run, checkpointing at every generation.
  ApexConfig full = MakeApexConfig();
  full.num_actors = 2;
  full.checkpoint_every = 1;
  full.checkpoint_dir = dir;
  ApexTrainer uninterrupted(&instance, full, agent_config);
  const ApexReport full_report = uninterrupted.Run();
  ASSERT_EQ(full_report.episodes_done, 6);

  // "Kill" after generation 2 (4 episodes): a fresh trainer resumes from
  // that generation's fabric checkpoint and finishes the run. Everything
  // downstream — actor decisions, replay contents, learner sampling,
  // final weights — must be bit-identical to never having died.
  ApexConfig resumed_config = MakeApexConfig();
  resumed_config.num_actors = 2;
  resumed_config.resume_from = dir + "/apex-000002.ckpt";
  ApexTrainer resumed(&instance, resumed_config, agent_config);
  const ApexReport resumed_report = resumed.Run();

  EXPECT_EQ(resumed_report.episodes_done, 6);
  ExpectSameWeights(uninterrupted.PolicyWeights(), resumed.PolicyWeights());
  EXPECT_EQ(uninterrupted.learner_agent()->episodes_trained(),
            resumed.learner_agent()->episodes_trained());
  // Only the post-resume episodes were (re)run.
  ExpectSameEpisode(full_report.episodes[4], resumed_report.episodes[4]);
  ExpectSameEpisode(full_report.episodes[5], resumed_report.episodes[5]);
}

// The fabric checkpoint's payload prefix is a plain agent blob: a serving
// ModelServer pointed at the checkpoint file must be able to restore and
// publish it (the actors' weight channel is the checkpoint watcher in a
// multi-process deployment).
TEST(ApexTrainerTest, FabricCheckpointIsModelServerCompatible) {
  const Instance instance = MakeTrainInstance();
  const AgentConfig agent_config = MakeTrainAgentConfig();
  const std::string dir = ::testing::TempDir() + "/apex_serve_compat";

  ApexConfig config = MakeApexConfig();
  config.checkpoint_every = 1;
  config.checkpoint_dir = dir;
  ApexTrainer trainer(&instance, config, agent_config);
  const ApexReport report = trainer.Run();
  ASSERT_GE(report.final_seq, 3u);

  serve::ModelServer models(agent_config);
  EXPECT_EQ(models.PollOnce(dir), 1);
  EXPECT_EQ(models.current_seq(), report.final_seq);
  ExpectSameWeights(models.Current()->weights, trainer.PolicyWeights());
}

// --- Fabric-vs-local greedy parity -----------------------------------------

TEST(ApexTrainerTest, GreedyFabricEpisodeMatchesLocalAgent) {
  const Instance instance = MakeTrainInstance();
  AgentConfig agent_config = MakeTrainAgentConfig();
  // No exploration, no learning: the fabric episode is pure served
  // inference on the seq-0 snapshot, which must equal a local
  // evaluation-mode agent built from the same config.
  agent_config.epsilon_start = 0.0;
  agent_config.epsilon_end = 0.0;

  ApexConfig config = MakeApexConfig();
  config.episodes = 1;
  config.sync_every = 1;
  config.updates_per_generation = 0;
  ApexTrainer trainer(&instance, config, agent_config);
  const ApexReport report = trainer.Run();

  DqnFleetAgent local(agent_config, "local");
  Environment env(&instance);
  const EpisodeResult local_result = RunEpisode(&env, &local);
  ASSERT_EQ(report.episodes.size(), 1u);
  ExpectSameEpisode(report.episodes[0], local_result);
  EXPECT_EQ(report.explore_decisions, 0);
  EXPECT_GT(report.served_decisions, 0);
}

// --- Async mode smoke -------------------------------------------------------

TEST(ApexTrainerTest, AsyncModeTrainsAndPublishes) {
  const Instance instance = MakeTrainInstance();
  const AgentConfig agent_config = MakeTrainAgentConfig();
  ApexConfig config = MakeApexConfig();
  config.deterministic = false;
  config.num_actors = 3;
  config.episodes = 9;
  config.sync_every = 3;
  ApexTrainer trainer(&instance, config, agent_config);
  const ApexReport report = trainer.Run();
  EXPECT_EQ(report.episodes_done, 9);
  EXPECT_GT(report.transitions, 0);
  EXPECT_GT(report.learner_updates, 0u);
  EXPECT_GE(report.publishes, 1u);
  for (const EpisodeResult& episode : report.episodes) {
    EXPECT_GT(episode.num_decisions, 0);
  }
}

// Every episode is committed exactly once, whatever order the actors finish
// in: the report, the replay and the train.transitions counter agree, and
// each generation published exactly one snapshot.
TEST(ApexTrainerTest, AsyncModeCommitsEveryEpisodeOnce) {
  const Instance instance = MakeTrainInstance();
  const AgentConfig agent_config = MakeTrainAgentConfig();
  ApexConfig config = MakeApexConfig();
  config.deterministic = false;
  config.num_actors = 3;
  config.episodes = 9;
  config.sync_every = 3;
  obs::Counter* transitions =
      obs::MetricsRegistry::Global().GetCounter("train.transitions");
  obs::Counter* generations =
      obs::MetricsRegistry::Global().GetCounter("train.generations");
  const uint64_t transitions_before = transitions->Value();
  const uint64_t generations_before = generations->Value();

  ApexTrainer trainer(&instance, config, agent_config);
  const ApexReport report = trainer.Run();

  EXPECT_EQ(report.episodes_done, 9);
  ASSERT_EQ(report.episodes.size(), 9u);
  for (size_t e = 0; e < report.episodes.size(); ++e) {
    EXPECT_EQ(report.episodes[e].num_orders,
              static_cast<int>(instance.orders.size()))
        << "episode " << e;
    EXPECT_GT(report.episodes[e].num_decisions, 0) << "episode " << e;
  }
  EXPECT_GT(report.transitions, 0);
  EXPECT_EQ(report.transitions, trainer.replay_size());
  EXPECT_EQ(static_cast<uint64_t>(report.transitions),
            transitions->Value() - transitions_before);
  EXPECT_GT(report.learner_updates, 0u);
  EXPECT_EQ(report.final_seq, generations->Value() - generations_before);
  EXPECT_EQ(report.final_seq, 3u);
}

}  // namespace
}  // namespace dpdp::train
