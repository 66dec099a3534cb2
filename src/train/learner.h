#ifndef DPDP_TRAIN_LEARNER_H_
#define DPDP_TRAIN_LEARNER_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "rl/config.h"
#include "rl/dqn_agent.h"
#include "rl/replay.h"
#include "serve/model_server.h"
#include "util/rng.h"
#include "util/status.h"

namespace dpdp::train {

/// The central learner of the Ape-X fabric: owns the only networks in the
/// training process (a headless DqnFleetAgent — its Act path is never
/// used) and the fabric's experience replay, samples minibatches from it,
/// steps Adam via the agent's batched TrainOnBatch, and publishes policy
/// snapshots through the ModelServer hot-swap channel for the serving
/// path the actors decide through.
///
/// Not thread-safe: only the trainer's own thread touches a learner. The
/// actors hand their episodes to that thread, which commits them here in
/// order (global episode order in deterministic mode, arrival order in
/// async mode).
///
/// The learner syncs its target network on an UPDATE-count schedule
/// (target_sync_updates), not the local agent's episode-count schedule —
/// the learner never sees episode boundaries, only minibatches.
class Learner {
 public:
  /// `models` must outlive the learner. The replay holds
  /// config.replay_capacity transitions; `sampler_seed` seeds the
  /// minibatch sampling stream (part of the fabric checkpoint).
  Learner(const AgentConfig& config, serve::ModelServer* models,
          uint64_t sampler_seed, int target_sync_updates);

  /// Appends one episode's transitions to the replay, in order.
  void AddEpisode(std::vector<Transition> transitions);

  /// Runs up to `updates` minibatch gradient steps, stopping early while
  /// the replay holds fewer than batch_size transitions. Returns the number
  /// of updates actually performed.
  int RunUpdates(int updates);

  /// Publishes the current online weights as snapshot `seq`. Returns true
  /// when the snapshot became current (strictly newer than the published
  /// one).
  bool Publish(uint64_t seq, int episodes_done, const std::string& source);

  DqnFleetAgent* agent() { return &agent_; }
  const DqnFleetAgent* agent() const { return &agent_; }
  int replay_size() const { return replay_.size(); }
  uint64_t updates() const { return updates_; }
  uint64_t publishes() const { return publishes_; }
  double last_loss() const { return agent_.last_loss(); }

  /// Serializes [agent blob][learner extras][replay] — the agent blob
  /// leads so a ModelServer checkpoint watcher's scratch agent can restore
  /// the payload prefix without knowing the fabric exists. The extras
  /// carry the sampler RNG state and the update counter; with the replay
  /// they make resumed training bit-identical to an uninterrupted run.
  Status SaveState(std::ostream* os) const;
  /// Restores state written by SaveState. Malformed or truncated input, an
  /// older extras layout and a replay of a different capacity all return
  /// a non-OK Status.
  Status LoadState(std::istream* is);

 private:
  serve::ModelServer* const models_;
  const int target_sync_updates_;
  DqnFleetAgent agent_;
  ReplayBuffer replay_;
  Rng sampler_;
  uint64_t updates_ = 0;
  uint64_t publishes_ = 0;
};

}  // namespace dpdp::train

#endif  // DPDP_TRAIN_LEARNER_H_
