#include "rl/actor_critic.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace dpdp {

ActorCriticAgent::ActorCriticAgent(const AgentConfig& config,
                                   std::string name)
    : config_(config), name_(std::move(name)), rng_(config.seed) {
  Rng actor_rng = rng_.Fork();
  actor_ = MakeQNetwork(config_, &actor_rng);
  Rng critic_rng = rng_.Fork();
  critic_ = MakeQNetwork(config_, &critic_rng);
  actor_opt_ = std::make_unique<nn::Adam>(actor_->Params(),
                                          config_.learning_rate, 0.9, 0.999,
                                          1e-8, config_.grad_clip_norm);
  critic_opt_ = std::make_unique<nn::Adam>(critic_->Params(),
                                           config_.learning_rate, 0.9,
                                           0.999, 1e-8,
                                           config_.grad_clip_norm);
}

namespace {

/// Softmax over rows [offset, offset + m) of a logits column.
std::vector<double> SoftmaxSlice(const nn::Matrix& logits, int offset,
                                 int m) {
  std::vector<double> pi(static_cast<size_t>(m));
  double mx = -1e300;
  for (int i = 0; i < m; ++i) mx = std::max(mx, logits(offset + i, 0));
  double denom = 0.0;
  for (int i = 0; i < m; ++i) {
    pi[i] = std::exp(logits(offset + i, 0) - mx);
    denom += pi[i];
  }
  for (double& p : pi) p /= denom;
  return pi;
}

}  // namespace

std::vector<double> ActorCriticAgent::PolicyOnSubFleet(
    const FleetState& state, const std::vector<int>& idx) {
  act_batch_.Clear();
  AppendSubFleetInputs(state, idx, config_.use_graph, config_.num_neighbors,
                       &act_batch_);
  const nn::Matrix& logits = actor_->EvaluateBatch(act_batch_);
  return SoftmaxSlice(logits, 0, static_cast<int>(idx.size()));
}

int ActorCriticAgent::Act(const DispatchContext& context) {
  const FleetState state = BuildFleetState(context, config_);
  const std::vector<int> idx = state.FeasibleIndices();
  DPDP_CHECK(!idx.empty());
  const std::vector<double> pi = PolicyOnSubFleet(state, idx);
  for (double p : pi) {
    // A NaN logit survives the softmax as NaN; Categorical would abort on
    // it. Hand the decision back so the simulator degrades gracefully.
    if (!std::isfinite(p)) return -1;
  }

  int sub_action = 0;
  if (training_) {
    sub_action = rng_.Categorical(pi);
  } else {
    for (size_t i = 1; i < pi.size(); ++i) {
      if (pi[i] > pi[sub_action]) sub_action = static_cast<int>(i);
    }
  }
  if (training_) recorder_.Record(state);
  return idx[sub_action];
}

void ActorCriticAgent::Learn(const EpisodeResult& result) {
  (void)result;
  if (!training_ || recorder_.empty()) return;
  TrainEpisode(recorder_.TakeSteps());
  ++episodes_trained_;
}

void ActorCriticAgent::TrainEpisode(
    const std::vector<EpisodeStep>& episode) {
  const size_t n = episode.size();
  // Eq. (7)/(8): fold the episode-mean instant reward into every step.
  double mean_reward = 0.0;
  for (const EpisodeStep& s : episode) mean_reward += s.instant_reward;
  mean_reward /= static_cast<double>(n);

  // Discounted returns over the folded rewards.
  std::vector<double> returns(n);
  double g = 0.0;
  for (size_t i = n; i-- > 0;) {
    g = (episode[i].instant_reward + mean_reward) + config_.gamma * g;
    returns[i] = g;
  }

  double policy_loss = 0.0;
  double value_loss = 0.0;
  const double inv_n = 1.0 / static_cast<double>(n);

  // One batch item per episode step; the whole episode runs through each
  // head in a single TrainForward / BackwardBatch round trip. Every row's
  // output feeds the loss, so every row is listed and the field is the
  // whole batch.
  train_batch_.Clear();
  std::vector<int> sub_action(n);
  for (size_t i = 0; i < n; ++i) {
    const FleetState state = episode[i].state.ToFleetState();
    const std::vector<int> idx = state.FeasibleIndices();
    const auto it = std::find(idx.begin(), idx.end(), episode[i].action);
    DPDP_CHECK(it != idx.end());
    sub_action[i] = static_cast<int>(it - idx.begin());
    AppendSubFleetInputs(state, idx, config_.use_graph,
                         config_.num_neighbors, &train_batch_);
  }

  std::vector<int> rows(static_cast<size_t>(train_batch_.total_rows()));
  std::iota(rows.begin(), rows.end(), 0);

  // Critic: V(S_i) = mean of per-vehicle values over item i's rows.
  // Value gradient: d/dv_r of 0.5 (V - G)^2 = (V - G) / m.
  const nn::Matrix& values = critic_->TrainForward(train_batch_, rows);
  std::vector<double> advantage(n);
  dvalues_.Resize(train_batch_.total_rows(), 1);
  for (size_t i = 0; i < n; ++i) {
    const int off = train_batch_.offset(static_cast<int>(i));
    const int m = train_batch_.rows(static_cast<int>(i));
    double v = 0.0;
    for (int r = 0; r < m; ++r) v += values(off + r, 0);
    v /= static_cast<double>(m);
    advantage[i] = returns[i] - v;
    const double g = (v - returns[i]) / static_cast<double>(m) * inv_n;
    for (int r = 0; r < m; ++r) dvalues_(off + r, 0) = g;
    value_loss += 0.5 * advantage[i] * advantage[i];
  }
  critic_->BackwardBatch(dvalues_);

  // Actor gradient: d/dlogits of -log pi(a) * A = (pi - onehot_a) * A.
  const nn::Matrix& logits = actor_->TrainForward(train_batch_, rows);
  dlogits_.Resize(train_batch_.total_rows(), 1);
  for (size_t i = 0; i < n; ++i) {
    const int off = train_batch_.offset(static_cast<int>(i));
    const int m = train_batch_.rows(static_cast<int>(i));
    const std::vector<double> pi = SoftmaxSlice(logits, off, m);
    for (int r = 0; r < m; ++r) {
      const double onehot = (r == sub_action[i]) ? 1.0 : 0.0;
      dlogits_(off + r, 0) = (pi[r] - onehot) * advantage[i] * inv_n;
    }
    policy_loss +=
        -std::log(std::max(pi[sub_action[i]], 1e-12)) * advantage[i];
  }
  actor_->BackwardBatch(dlogits_);

  critic_opt_->Step();
  actor_opt_->Step();
  last_policy_loss_ = policy_loss * inv_n;
  last_value_loss_ = value_loss * inv_n;
}

std::vector<double> ActorCriticAgent::Policy(const DispatchContext& context) {
  const FleetState state = BuildFleetState(context, config_);
  const std::vector<int> idx = state.FeasibleIndices();
  std::vector<double> out(context.options.size(), 0.0);
  if (idx.empty()) return out;
  const std::vector<double> pi = PolicyOnSubFleet(state, idx);
  for (size_t i = 0; i < idx.size(); ++i) out[idx[i]] = pi[i];
  return out;
}

}  // namespace dpdp
