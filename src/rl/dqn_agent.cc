#include "rl/dqn_agent.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <utility>

#include "nn/loss.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/binary_io.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dpdp {

namespace {

/// Shared across all agents; see SimMetrics for the caching rationale.
struct RlMetrics {
  obs::Counter* train_batches =
      obs::MetricsRegistry::Global().GetCounter("rl.train_batches");
  obs::Counter* transitions =
      obs::MetricsRegistry::Global().GetCounter("rl.transitions_added");
  obs::Histogram* batch_latency =
      obs::MetricsRegistry::Global().GetHistogram(
          "rl.train_batch_latency_s", obs::LatencyBucketsSeconds());
  obs::Gauge* replay_size =
      obs::MetricsRegistry::Global().GetGauge("rl.replay_size");
};

RlMetrics& Metrics() {
  static RlMetrics* metrics = new RlMetrics;
  return *metrics;
}

/// The entry of `idx` whose feasible vehicle has the largest Q, read at
/// q(offset + i, 0); the first best wins ties and a NaN never wins. Aborts
/// when no feasible Q beats -inf: a target read at entry -1 would land on
/// another item's row.
int FeasibleArgmax(const FleetState& state, const std::vector<int>& idx,
                   const nn::Matrix& q, int offset = 0) {
  int best = -1;
  double best_q = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < idx.size(); ++i) {
    if (!state.feasible[idx[i]]) continue;
    const double qi = q(offset + static_cast<int>(i), 0);
    if (qi > best_q) {
      best_q = qi;
      best = static_cast<int>(i);
    }
  }
  DPDP_CHECK(best >= 0 && "every feasible next-state Q is non-finite");
  return best;
}

}  // namespace

/// Worker-local clones for the parallel minibatch path. `synced_generation`
/// tracks the last batch whose master weights were copied in, so a clone
/// re-used within one batch skips the redundant sync.
struct DqnFleetAgent::WorkerNets {
  std::unique_ptr<FleetQNetwork> online;
  std::unique_ptr<FleetQNetwork> target;
  /// Worker-local evaluation scratch; SubFleetQ runs concurrently on
  /// worker nets, so the batch must not be shared with the agent.
  DecisionBatch batch;
  nn::Matrix dq;
  uint64_t synced_generation = 0;
};

DqnFleetAgent::~DqnFleetAgent() = default;

DqnFleetAgent::DqnFleetAgent(const AgentConfig& config, std::string name)
    : config_(config),
      name_(std::move(name)),
      rng_(config.seed),
      replay_(config.replay_capacity),
      epsilon_(config.epsilon_start) {
  Rng net_rng = rng_.Fork();
  online_ = MakeQNetwork(config_, &net_rng);
  // The target net gets its own init then an immediate weight sync so both
  // start identical.
  Rng target_rng = rng_.Fork();
  target_ = MakeQNetwork(config_, &target_rng);
  nn::CopyParameters(online_->Params(), target_->Params());
  optimizer_ = std::make_unique<nn::Adam>(online_->Params(),
                                          config_.learning_rate, 0.9, 0.999,
                                          1e-8, config_.grad_clip_norm);
}

const nn::Matrix& DqnFleetAgent::SubFleetQ(const FleetState& state,
                                           FleetQNetwork* net,
                                           const std::vector<int>& idx,
                                           DecisionBatch* batch) const {
  DPDP_TRACE_SPAN("rl.q_forward");
  batch->Clear();
  AppendSubFleetInputs(state, idx, config_.use_graph, config_.num_neighbors,
                       batch);
  return net->EvaluateBatch(*batch);
}

int DqnFleetAgent::Act(const DispatchContext& context) {
  const FleetState state = BuildFleetState(context, config_);
  const std::vector<int> feasible = state.FeasibleIndices();
  DPDP_CHECK(!feasible.empty());

  int action = -1;
  if (training_ && rng_.Bernoulli(epsilon_)) {
    action = feasible[rng_.UniformInt(static_cast<int>(feasible.size()))];
  } else {
    const std::vector<int> idx = InferenceIndices(state, config_);
    const nn::Matrix& q = SubFleetQ(state, online_.get(), idx, &act_batch_);
    // Argmax restricted to feasible vehicles (infeasible ones keep the
    // paper's "extremely small negative" Q). A non-finite feasible score
    // refuses the whole decision (vehicle -1) so the simulator's greedy
    // fallback takes over instead of argmax silently comparing garbage.
    const GreedyQChoice choice = ArgmaxFeasibleQ(state, idx, q);
    if (choice.vehicle < 0) return -1;
    action = choice.vehicle;
    if (training_) {
      q_sum_ += choice.q;
      q_max_ = q_count_ == 0 ? choice.q : std::max(q_max_, choice.q);
      ++q_count_;
    }
  }

  if (training_) recorder_.Record(state);
  return action;
}

void DqnFleetAgent::Learn(const EpisodeResult& result) {
  if (!training_) return;
  if (config_.track_best_weights &&
      epsilon_ <= config_.best_weights_max_epsilon &&
      (best_weights_.empty() || result.total_cost < best_episode_cost_)) {
    best_episode_cost_ = result.total_cost;
    best_weights_.clear();
    for (const nn::Parameter* p : online_->Params()) {
      best_weights_.push_back(p->value);
    }
  }
  if (recorder_.empty()) return;

  std::vector<Transition> transitions = recorder_.Fold();
  const size_t episode_transitions = transitions.size();
  for (Transition& t : transitions) replay_.Add(std::move(t));
  Metrics().transitions->Add(episode_transitions);

  if (replay_.size() >= config_.batch_size) {
    int updates = config_.updates_per_episode;
    if (config_.scale_updates_with_episode) {
      updates = std::max(updates,
                         static_cast<int>(episode_transitions /
                                          std::max(1, config_.batch_size)));
    }
    for (int u = 0; u < updates; ++u) TrainBatch();
  }

  ++episodes_trained_;
  epsilon_ = EpsilonAt(config_, episodes_trained_);
  if (episodes_trained_ % config_.target_sync_episodes == 0) {
    SyncTarget();
  }

  // Fold the episode's greedy-Q accumulators into the Stats() snapshot.
  last_mean_q_ = q_count_ > 0 ? q_sum_ / static_cast<double>(q_count_) : 0.0;
  last_max_q_ = q_count_ > 0 ? q_max_ : 0.0;
  q_sum_ = 0.0;
  q_max_ = 0.0;
  q_count_ = 0;
  Metrics().replay_size->Set(static_cast<double>(replay_.size()));
}

TrainingStats DqnFleetAgent::Stats() const {
  TrainingStats stats;
  stats.loss = last_loss_;
  stats.epsilon = epsilon_;
  stats.mean_q = last_mean_q_;
  stats.max_q = last_max_q_;
  stats.replay_size = replay_.size();
  return stats;
}

double DqnFleetAgent::TdTarget(const Transition& t, FleetQNetwork* online_net,
                               FleetQNetwork* target_net,
                               DecisionBatch* batch) const {
  double y = t.reward;
  if (t.terminal || t.next_state.empty()) return y;
  const FleetState next = t.next_state.ToFleetState();
  if (next.NumFeasible() == 0) return y;

  const std::vector<int> next_idx = InferenceIndices(next, config_);
  double next_value = 0.0;
  if (config_.double_dqn) {
    // Double DQN: the argmax from the online net, the value from the
    // target net, which scores only that row's receptive field.
    const int best = FeasibleArgmax(
        next, next_idx, SubFleetQ(next, online_net, next_idx, batch));
    next_value = target_net->EvaluateBatch(*batch, {best})(0, 0);
  } else {
    const nn::Matrix& qt = SubFleetQ(next, target_net, next_idx, batch);
    next_value = qt(FeasibleArgmax(next, next_idx, qt), 0);
  }
  return y + config_.gamma * next_value;
}

double DqnFleetAgent::AccumulateTransitionGradient(
    const Transition& t, FleetQNetwork* online_net, FleetQNetwork* target_net,
    double inv_batch, DecisionBatch* batch, nn::Matrix* dq) const {
  const double y = TdTarget(t, online_net, target_net, batch);

  const FleetState state = t.state.ToFleetState();
  const std::vector<int> idx = InferenceIndices(state, config_);
  const auto it = std::find(idx.begin(), idx.end(), t.action);
  DPDP_CHECK(it != idx.end());
  const int sub_action = static_cast<int>(it - idx.begin());

  batch->Clear();
  AppendSubFleetInputs(state, idx, config_.use_graph, config_.num_neighbors,
                       batch);
  const double q_sa = online_net->TrainForward(*batch, {sub_action})(0, 0);
  dq->Resize(1, 1);
  (*dq)(0, 0) = nn::HuberLossGrad(q_sa, y) * inv_batch;
  {
    DPDP_TRACE_SPAN("rl.q_backward");
    online_net->BackwardBatch(*dq);
  }
  return nn::HuberLoss(q_sa, y);
}

void DqnFleetAgent::TrainBatch() {
  // The sample always comes from the agent's own rng_, so the replay draw
  // sequence is identical whether the update itself runs serially or in
  // parallel.
  std::vector<const Transition*> batch;
  {
    DPDP_TRACE_SPAN("rl.replay_sample");
    batch = replay_.Sample(config_.batch_size, &rng_);
  }
  TrainOnBatch(batch);
}

double DqnFleetAgent::TrainOnBatch(
    const std::vector<const Transition*>& batch) {
  DPDP_TRACE_SPAN("rl.train_batch");
  WallTimer timer;
  RlMetrics& metrics = Metrics();
  metrics.train_batches->Add();
  if (config_.parallel_batch) {
    TrainBatchParallel(batch);
    metrics.batch_latency->Record(timer.ElapsedSeconds());
    return last_loss_;
  }

  // Serial path, fully batched: every transition's next-state sub-fleet is
  // stacked into one batch for the targets and every state sub-fleet into
  // one training batch, with a single backward. Items of a stacked batch
  // never see each other (their neighbor lists stay inside the item), and
  // each network runs only the receptive field of the rows whose Q is
  // read, so every TD term is bit-identical to the per-transition one.
  const int n = static_cast<int>(batch.size());
  const double inv_batch = 1.0 / static_cast<double>(n);

  // Phase 1: batched (double-)DQN targets.
  std::vector<double> y(n, 0.0);
  std::vector<int> next_item(n, -1);
  std::vector<FleetState> next_states(n);
  std::vector<std::vector<int>> next_idx(n);
  next_batch_.Clear();
  for (int i = 0; i < n; ++i) {
    const Transition& t = *batch[i];
    y[i] = t.reward;
    if (t.terminal || t.next_state.empty()) continue;
    next_states[i] = t.next_state.ToFleetState();
    if (next_states[i].NumFeasible() == 0) continue;
    next_idx[i] = InferenceIndices(next_states[i], config_);
    next_item[i] = AppendSubFleetInputs(next_states[i], next_idx[i],
                                        config_.use_graph,
                                        config_.num_neighbors, &next_batch_);
  }
  if (next_batch_.num_items() > 0) {
    // Item i's argmax row of a Q column over every next-state row.
    auto best_row = [&](const nn::Matrix& q, int i) {
      const int off = next_batch_.offset(next_item[i]);
      return off + FeasibleArgmax(next_states[i], next_idx[i], q, off);
    };
    if (config_.double_dqn) {
      // The online net picks each item's row over every row; the target
      // net then scores only those rows' receptive fields.
      std::vector<int> best;
      const nn::Matrix& qo = online_->EvaluateBatch(next_batch_);
      for (int i = 0; i < n; ++i) {
        if (next_item[i] >= 0) best.push_back(best_row(qo, i));
      }
      const nn::Matrix& qt = target_->EvaluateBatch(next_batch_, best);
      int k = 0;
      for (int i = 0; i < n; ++i) {
        if (next_item[i] >= 0) y[i] += config_.gamma * qt(k++, 0);
      }
    } else {
      const nn::Matrix& qt = target_->EvaluateBatch(next_batch_);
      for (int i = 0; i < n; ++i) {
        if (next_item[i] >= 0) y[i] += config_.gamma * qt(best_row(qt, i), 0);
      }
    }
  }

  // Phase 2: one stacked training forward over the receptive field of the
  // executed vehicles' rows, one backward.
  state_batch_.Clear();
  std::vector<int> action_rows(n);
  for (int i = 0; i < n; ++i) {
    const Transition& t = *batch[i];
    const FleetState state = t.state.ToFleetState();
    const std::vector<int> idx = InferenceIndices(state, config_);
    const auto it = std::find(idx.begin(), idx.end(), t.action);
    DPDP_CHECK(it != idx.end());
    action_rows[i] = state_batch_.total_rows() +
                     static_cast<int>(it - idx.begin());
    AppendSubFleetInputs(state, idx, config_.use_graph,
                         config_.num_neighbors, &state_batch_);
  }
  const nn::Matrix& q = online_->TrainForward(state_batch_, action_rows);
  dq_.Resize(n, 1);
  double loss_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double q_sa = q(i, 0);
    dq_(i, 0) = nn::HuberLossGrad(q_sa, y[i]) * inv_batch;
    loss_sum += nn::HuberLoss(q_sa, y[i]);
  }
  {
    DPDP_TRACE_SPAN("rl.q_backward");
    online_->BackwardBatch(dq_);
  }
  optimizer_->Step();
  last_loss_ = loss_sum * inv_batch;
  metrics.batch_latency->Record(timer.ElapsedSeconds());
  return last_loss_;
}

void DqnFleetAgent::SyncTarget() {
  nn::CopyParameters(online_->Params(), target_->Params());
}

std::unique_ptr<DqnFleetAgent::WorkerNets> DqnFleetAgent::AcquireWorkerNets() {
  std::unique_ptr<WorkerNets> nets;
  {
    std::lock_guard<std::mutex> lock(worker_nets_mu_);
    if (!worker_nets_cache_.empty()) {
      nets = std::move(worker_nets_cache_.back());
      worker_nets_cache_.pop_back();
    }
  }
  if (nets == nullptr) {
    nets = std::make_unique<WorkerNets>();
    // The init values are irrelevant -- the sync below overwrites them --
    // so a throwaway rng keeps clone creation independent of rng_ state.
    Rng scratch(config_.seed);
    nets->online = MakeQNetwork(config_, &scratch);
    nets->target = MakeQNetwork(config_, &scratch);
  }
  if (nets->synced_generation != batch_generation_) {
    // Masters are read-only while a batch's ParallelFor is in flight (all
    // gradients go to the clones), so concurrent syncs are safe.
    nn::CopyParameters(online_->Params(), nets->online->Params());
    nn::CopyParameters(target_->Params(), nets->target->Params());
    for (nn::Parameter* p : nets->online->Params()) p->ZeroGrad();
    nets->synced_generation = batch_generation_;
  }
  return nets;
}

void DqnFleetAgent::ReleaseWorkerNets(std::unique_ptr<WorkerNets> nets) {
  std::lock_guard<std::mutex> lock(worker_nets_mu_);
  worker_nets_cache_.push_back(std::move(nets));
}

void DqnFleetAgent::TrainBatchParallel(
    const std::vector<const Transition*>& batch) {
  ++batch_generation_;  // Invalidates every cached clone's weight sync.
  const double inv_batch = 1.0 / static_cast<double>(batch.size());

  // Phase 1: per-transition forward/backward on worker-local clones. Task i
  // writes only results[i], so no locking is needed on the result slots.
  struct PerTransition {
    double loss = 0.0;
    std::vector<nn::Matrix> grads;
  };
  std::vector<PerTransition> results(batch.size());
  ThreadPool* pool =
      config_.batch_pool != nullptr ? config_.batch_pool : GlobalThreadPool();
  pool->ParallelFor(static_cast<int>(batch.size()), [&](int i) {
    std::unique_ptr<WorkerNets> nets = AcquireWorkerNets();
    results[i].loss = AccumulateTransitionGradient(
        *batch[i], nets->online.get(), nets->target.get(), inv_batch,
        &nets->batch, &nets->dq);
    for (nn::Parameter* p : nets->online->Params()) {
      results[i].grads.push_back(p->grad);
      p->ZeroGrad();
    }
    ReleaseWorkerNets(std::move(nets));
  });

  // Phase 2: reduce in transition order -- the fixed order makes the summed
  // gradient (and thus the whole run) bit-identical for any worker count.
  const std::vector<nn::Parameter*> master = online_->Params();
  double loss_sum = 0.0;
  for (PerTransition& r : results) {
    loss_sum += r.loss;
    DPDP_CHECK(r.grads.size() == master.size());
    for (size_t j = 0; j < master.size(); ++j) {
      master[j]->grad.AddInPlace(r.grads[j]);
    }
  }
  optimizer_->Step();
  last_loss_ = loss_sum * inv_batch;
}

void DqnFleetAgent::FinalizeTraining() {
  if (best_weights_.empty()) return;
  const std::vector<nn::Parameter*> params = online_->Params();
  DPDP_CHECK(params.size() == best_weights_.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = best_weights_[i];
  }
  nn::CopyParameters(online_->Params(), target_->Params());
}

std::vector<double> DqnFleetAgent::QValues(const DispatchContext& context) {
  const FleetState state = BuildFleetState(context, config_);
  const std::vector<int> idx = InferenceIndices(state, config_);
  std::vector<double> out(context.options.size(),
                          -std::numeric_limits<double>::infinity());
  if (state.NumFeasible() == 0) return out;
  const nn::Matrix& q = SubFleetQ(state, online_.get(), idx, &act_batch_);
  for (size_t i = 0; i < idx.size(); ++i) {
    if (state.feasible[idx[i]]) out[idx[i]] = q(static_cast<int>(i), 0);
  }
  return out;
}

void DqnFleetAgent::Save(std::ostream* os) {
  nn::SaveParameters(online_->Params(), os);
}

std::vector<nn::Matrix> DqnFleetAgent::ExportPolicyWeights() {
  std::vector<nn::Matrix> weights;
  for (const nn::Parameter* p : online_->Params()) {
    weights.push_back(p->value);
  }
  return weights;
}

bool DqnFleetAgent::Load(std::istream* is) {
  if (!nn::LoadParameters(is, online_->Params())) return false;
  nn::CopyParameters(online_->Params(), target_->Params());
  return true;
}

namespace {

constexpr uint32_t kAgentStateVersion = 1;

}  // namespace

Status DqnFleetAgent::SaveState(std::ostream* os) const {
  DPDP_CHECK(os != nullptr);
  DPDP_CHECK(recorder_.empty());  // Episode boundary.
  WritePod(os, kAgentStateVersion);
  nn::SaveParameters(online_->Params(), os);
  nn::SaveParameters(target_->Params(), os);
  optimizer_->SaveState(os);
  WriteRngState(os, rng_.GetState());
  WritePod(os, epsilon_);
  WritePod(os, static_cast<int32_t>(episodes_trained_));
  WritePod(os, last_loss_);
  WritePod(os, best_episode_cost_);
  WritePod(os, static_cast<uint64_t>(best_weights_.size()));
  for (const nn::Matrix& m : best_weights_) nn::SaveMatrix(m, os);
  replay_.Save(os);
  if (!*os) return Status::Internal("agent state write failed");
  return Status::OK();
}

Status DqnFleetAgent::LoadState(std::istream* is) {
  DPDP_CHECK(is != nullptr);
  uint32_t version = 0;
  if (!ReadPod(is, &version) || version != kAgentStateVersion) {
    return Status::InvalidArgument("unsupported agent state version");
  }
  if (!nn::LoadParameters(is, online_->Params()) ||
      !nn::LoadParameters(is, target_->Params())) {
    return Status::InvalidArgument(
        "agent weights malformed or architecture mismatch");
  }
  if (!optimizer_->LoadState(is)) {
    return Status::InvalidArgument("optimizer state malformed");
  }
  Rng::State rng_state;
  if (!ReadRngState(is, &rng_state)) {
    return Status::InvalidArgument("rng state malformed");
  }
  double epsilon = 0.0;
  int32_t episodes_trained = 0;
  double last_loss = 0.0;
  double best_cost = 0.0;
  uint64_t num_best = 0;
  if (!ReadPod(is, &epsilon) || !ReadPod(is, &episodes_trained) ||
      !ReadPod(is, &last_loss) || !ReadPod(is, &best_cost) ||
      !ReadPod(is, &num_best) || episodes_trained < 0 ||
      num_best > (1ull << 20)) {
    return Status::InvalidArgument("agent scalar state malformed");
  }
  std::vector<nn::Matrix> best_weights(num_best);
  for (nn::Matrix& m : best_weights) {
    if (!nn::LoadMatrix(is, &m)) {
      return Status::InvalidArgument("best-weights snapshot malformed");
    }
  }
  if (!replay_.Load(is)) {
    return Status::InvalidArgument("replay buffer malformed");
  }
  rng_.SetState(rng_state);
  epsilon_ = epsilon;
  episodes_trained_ = episodes_trained;
  last_loss_ = last_loss;
  best_episode_cost_ = best_cost;
  best_weights_ = std::move(best_weights);
  recorder_ = EpisodeRecorder{};
  // Telemetry accumulators restart from zero (not checkpointed).
  q_sum_ = 0.0;
  q_max_ = 0.0;
  q_count_ = 0;
  last_mean_q_ = 0.0;
  last_max_q_ = 0.0;
  // Cached worker clones hold pre-restore weights; force a resync.
  ++batch_generation_;
  return Status::OK();
}

}  // namespace dpdp
