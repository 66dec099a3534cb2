#ifndef DPDP_RL_DQN_AGENT_H_
#define DPDP_RL_DQN_AGENT_H_

#include <iosfwd>
#include <memory>
#include <mutex>
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

/// The value-based DRL dispatcher family of the paper (Algorithm 3):
/// depending on AgentConfig flags this is DQN, DDQN, ST-DDQN, DGN, DDGN or
/// ST-DDGN. One network scores the feasible sub-fleet per order; training
/// uses episode-end reward folding (Eq. 7/8), experience replay, and
/// (double-)DQN targets with a periodically synced target network.
class DqnFleetAgent : public Agent {
 public:
  DqnFleetAgent(const AgentConfig& config, std::string name);
  ~DqnFleetAgent() override;

  const char* name() const override { return name_.c_str(); }
  /// Returns -1 (no usable choice) when the network emits a non-finite
  /// Q-value for any feasible vehicle; the environment then degrades to
  /// the greedy fallback. Nothing is recorded for such a decision.
  int Act(const DispatchContext& context) override;
  /// Records the vehicle the environment actually executed (EpisodeRecorder).
  void Observe(const DispatchContext& context, int vehicle) override {
    recorder_.Observe(context, vehicle, config_);
  }
  void Learn(const EpisodeResult& result) override;
  /// Restores the best-episode weight snapshot (if any) into the online
  /// and target networks.
  void FinalizeTraining() override;

  /// Training mode enables epsilon-greedy exploration, transition
  /// recording and episode-end updates. Off by default for evaluation.
  void set_training(bool training) override { training_ = training; }
  bool training() const override { return training_; }

  double epsilon() const { return epsilon_; }
  int episodes_trained() const { return episodes_trained_; }
  double last_loss() const { return last_loss_; }
  int replay_size() const { return replay_.size(); }
  const AgentConfig& config() const { return config_; }

  /// Loss, epsilon, mean/max greedy Q of the last training episode and
  /// the replay fill level — the metrics.csv row source. Telemetry only:
  /// not part of the checkpointed state.
  TrainingStats Stats() const override;

  /// Greedy Q-values for a context (diagnostics; -inf for infeasible).
  std::vector<double> QValues(const DispatchContext& context);

  /// Serializes / restores the online network weights.
  void Save(std::ostream* os);
  bool Load(std::istream* is);

  /// Copies the online (policy) parameter values, in Params() order. The
  /// serving layer's snapshot source: a ModelServer materializes these into
  /// an immutable weight set after restoring a checkpoint into a scratch
  /// agent.
  std::vector<nn::Matrix> ExportPolicyWeights();

  /// Full training-state checkpoint (weights, target, optimizer moments,
  /// RNG, epsilon schedule, best-weights snapshot, replay buffer). Must be
  /// called at an episode boundary — mid-episode recorded steps are not
  /// captured. LoadState + continued training is bit-identical to an
  /// uninterrupted run.
  Status SaveState(std::ostream* os) const override;
  Status LoadState(std::istream* is) override;

  /// One gradient step over an externally sampled minibatch: batched
  /// (double-)DQN targets, one stacked forward/backward over the receptive
  /// field of the executed vehicles' rows, one Adam step. Returns the
  /// minibatch Huber loss. Aborts when every feasible Q of a next state is
  /// non-finite. The headless-learner entry point of
  /// the src/train/ fabric, which owns replay sampling itself; the local
  /// TrainBatch path is Sample + TrainOnBatch.
  double TrainOnBatch(const std::vector<const Transition*>& batch);
  /// Copies the online parameters into the target network. Exposed for
  /// the learner role, which syncs on an update-count schedule instead of
  /// this agent's episode-count schedule.
  void SyncTarget();

 private:
  /// Worker-local online/target network clones used by the parallel
  /// minibatch path (config.parallel_batch): each worker gets private
  /// activation caches and gradient buffers while sharing the master
  /// parameter values via an explicit per-batch sync.
  struct WorkerNets;

  /// One-item inference forward over the feasible sub-fleet via `batch`
  /// (cleared and rebuilt). Returns the Q column, row i = Q(idx[i]); the
  /// reference lives in `net`. Mutates only `net` and `batch`, so distinct
  /// net/batch pairs may run concurrently.
  const nn::Matrix& SubFleetQ(const FleetState& state, FleetQNetwork* net,
                              const std::vector<int>& idx,
                              DecisionBatch* batch) const;
  /// The (double-)DQN target y for one transition, computed on the given
  /// online/target networks with `batch` as scratch (parallel path; the
  /// serial path batches its targets inside TrainBatch).
  double TdTarget(const Transition& t, FleetQNetwork* online_net,
                  FleetQNetwork* target_net, DecisionBatch* batch) const;
  /// Runs forward + backward for one transition on `online_net`
  /// (accumulating the dq * inv_batch gradient into its parameters) and
  /// returns the Huber loss of the TD error. `batch`/`dq` are caller
  /// scratch (worker-local in the parallel path).
  double AccumulateTransitionGradient(const Transition& t,
                                      FleetQNetwork* online_net,
                                      FleetQNetwork* target_net,
                                      double inv_batch, DecisionBatch* batch,
                                      nn::Matrix* dq) const;
  void TrainBatch();
  void TrainBatchParallel(const std::vector<const Transition*>& batch);
  /// Checks a WorkerNets out of the cache (creating/syncing on demand)
  /// and back in. Thread-safe.
  std::unique_ptr<WorkerNets> AcquireWorkerNets();
  void ReleaseWorkerNets(std::unique_ptr<WorkerNets> nets);

  AgentConfig config_;
  std::string name_;
  Rng rng_;
  std::unique_ptr<FleetQNetwork> online_;
  std::unique_ptr<FleetQNetwork> target_;
  std::unique_ptr<nn::Adam> optimizer_;
  ReplayBuffer replay_;

  /// Decision-time batch, rebuilt per Act/QValues call on the
  /// simulation thread (storage reused, so the steady-state decision path
  /// does not allocate).
  DecisionBatch act_batch_;
  /// Serial-TrainBatch scratch: next-state and state batches spanning the
  /// whole minibatch, plus the dq column (one gradient per transition).
  DecisionBatch next_batch_;
  DecisionBatch state_batch_;
  nn::Matrix dq_;

  bool training_ = false;
  double epsilon_;
  int episodes_trained_ = 0;
  double last_loss_ = 0.0;
  EpisodeRecorder recorder_;
  double best_episode_cost_ = 0.0;
  std::vector<nn::Matrix> best_weights_;  ///< Empty until first snapshot.

  // Greedy-Q telemetry of the in-flight training episode (pure
  // observation; excluded from SaveState by design). q_* accumulate per
  // greedy decision and fold into last_* at episode end.
  double q_sum_ = 0.0;
  double q_max_ = 0.0;
  int q_count_ = 0;
  double last_mean_q_ = 0.0;
  double last_max_q_ = 0.0;

  // Parallel-batch worker state (used only when config_.parallel_batch).
  std::mutex worker_nets_mu_;
  std::vector<std::unique_ptr<WorkerNets>> worker_nets_cache_;
  uint64_t batch_generation_ = 0;  ///< Bumped per batch to trigger syncs.
};

}  // namespace dpdp

#endif  // DPDP_RL_DQN_AGENT_H_
