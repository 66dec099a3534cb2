#ifndef DPDP_RL_ACTOR_CRITIC_H_
#define DPDP_RL_ACTOR_CRITIC_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/optimizer.h"
#include "rl/agent.h"
#include "rl/config.h"
#include "rl/q_network.h"
#include "rl/replay.h"
#include "rl/state.h"
#include "sim/dispatcher.h"
#include "util/rng.h"

namespace dpdp {

/// The Actor-Critic dispatcher of the experiments (Section V-A), built on
/// the same per-vehicle network substrate as the DQN family: the actor
/// produces one logit per feasible vehicle (masked softmax policy) and the
/// critic one value per vehicle, mean-pooled into a state value. With
/// config.use_graph both heads use the neighborhood-attention graph
/// network — the "other policy gradient methods could be incorporated"
/// extension the paper sketches (Sec. IV-C1).
///
/// Training is on-policy at episode end with discounted returns over the
/// Eq. (8) rewards and advantage A = G - V(S).
class ActorCriticAgent : public Agent {
 public:
  ActorCriticAgent(const AgentConfig& config, std::string name = "AC");

  const char* name() const override { return name_.c_str(); }
  /// Returns -1 when the actor emits a non-finite probability (NaN logits)
  /// so the environment can degrade to the greedy fallback; nothing is
  /// recorded for such a decision.
  int Act(const DispatchContext& context) override;
  /// Records the vehicle the environment actually executed (EpisodeRecorder).
  void Observe(const DispatchContext& context, int vehicle) override {
    recorder_.Observe(context, vehicle, config_);
  }
  void Learn(const EpisodeResult& result) override;

  void set_training(bool training) override { training_ = training; }
  bool training() const override { return training_; }
  int episodes_trained() const { return episodes_trained_; }
  double last_policy_loss() const { return last_policy_loss_; }
  double last_value_loss() const { return last_value_loss_; }
  const AgentConfig& config() const { return config_; }

  /// Action probabilities over the full fleet (0 for infeasible vehicles).
  std::vector<double> Policy(const DispatchContext& context);

 private:
  /// Softmax over the feasible sub-fleet's actor logits (one EvaluateBatch
  /// item built in act_batch_).
  std::vector<double> PolicyOnSubFleet(const FleetState& state,
                                       const std::vector<int>& idx);
  void TrainEpisode(const std::vector<EpisodeStep>& episode);

  AgentConfig config_;
  std::string name_;
  Rng rng_;
  std::unique_ptr<FleetQNetwork> actor_;
  std::unique_ptr<FleetQNetwork> critic_;
  std::unique_ptr<nn::Adam> actor_opt_;
  std::unique_ptr<nn::Adam> critic_opt_;

  /// Decision-time batch (storage reused per call).
  DecisionBatch act_batch_;
  /// Episode-wide training batch plus gradient columns.
  DecisionBatch train_batch_;
  nn::Matrix dvalues_;
  nn::Matrix dlogits_;

  bool training_ = false;
  int episodes_trained_ = 0;
  double last_policy_loss_ = 0.0;
  double last_value_loss_ = 0.0;
  EpisodeRecorder recorder_;
};

}  // namespace dpdp

#endif  // DPDP_RL_ACTOR_CRITIC_H_
