#ifndef DPDP_TRAIN_APEX_H_
#define DPDP_TRAIN_APEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/instance.h"
#include "nn/matrix.h"
#include "rl/config.h"
#include "serve/dispatch_service.h"
#include "serve/model_server.h"
#include "sim/environment.h"
#include "train/actor.h"
#include "train/learner.h"
#include "util/status.h"

namespace dpdp::train {

/// Shape of an actor-learner training run. Env knobs (FromEnv) are the
/// DPDP_TRAIN_* family, documented in the README next to the serving
/// knobs they compose with.
struct ApexConfig {
  int num_actors = 4;
  int episodes = 16;
  /// Episodes per generation: the weight-publication period. The learner
  /// publishes a new snapshot after every sync_every completed episodes.
  int sync_every = 4;
  /// Deterministic replay-order mode: actors run a generation's episodes
  /// against FROZEN weights (published at the previous generation
  /// boundary), the trainer commits their episodes to replay in global
  /// episode order, and the learner runs a fixed update count per
  /// generation — so the final weights are bit-identical for ANY actor
  /// count. Costs a barrier per generation; off = free-running async.
  bool deterministic = true;
  /// Learner updates wait until the replay holds this many transitions
  /// (0 = the agent's batch_size).
  int min_replay = 0;
  /// Gradient steps per generation (per weight publication).
  int updates_per_generation = 8;
  /// Learner updates between target-network syncs.
  int target_sync_updates = 40;
  /// Fabric checkpoint every this many generations (0 = off). Files are
  /// written as <checkpoint_dir>/apex-<seq>.ckpt with the learner's payload
  /// layout [agent blob][learner extras][replay] — a serving ModelServer
  /// watcher restores the agent prefix of the very same files.
  int checkpoint_every = 0;
  std::string checkpoint_dir;
  /// Resume a run from a fabric checkpoint path (empty = fresh start).
  std::string resume_from;
  /// Base seed of the per-episode exploration streams.
  uint64_t explore_seed_base = 9001;
  /// DispatchService shards behind the actors (1 = a single service;
  /// > 1 = a round-robin ShardRouter, the batching invariant makes the
  /// shard count decision-invariant).
  int serve_shards = 1;
  /// Per-service micro-batching policy. In deterministic mode the trainer
  /// forces deadline_us = 0, chaos off and queue_capacity >= num_actors
  /// (shed and deadline answers depend on wall-clock scheduling).
  serve::ServeConfig serve;

  /// Fills from the DPDP_TRAIN_* environment knobs, with the embedded
  /// serve policy from ServeConfigFromEnv().
  static ApexConfig FromEnv();
};

/// Outcome of one training run.
struct ApexReport {
  int episodes_done = 0;
  long transitions = 0;
  uint64_t learner_updates = 0;
  uint64_t publishes = 0;
  uint64_t final_seq = 0;
  /// Highest snapshot seq any actor's decision was scored on — >= 1
  /// proves the actors picked up a learner publication mid-run.
  uint64_t max_model_seq_seen = 0;
  int explore_decisions = 0;
  int served_decisions = 0;
  int sheds = 0;
  double wall_seconds = 0.0;
  double transitions_per_second = 0.0;
  double last_loss = 0.0;
  double final_epsilon = 0.0;
  std::vector<EpisodeResult> episodes;  ///< Indexed by global episode.
};

/// The Ape-X style actor-learner fabric, composed entirely from the
/// serving and RL layers' existing interfaces: N Actors generate
/// experience through a shared DecisionService (micro-batched inference,
/// optionally sharded) and hand each finished episode to the trainer's
/// thread, which commits it to the Learner's replay; the learner consumes
/// minibatches and publishes weight snapshots through the ModelServer
/// hot-swap channel the service loops already watch — actors never pause
/// for a weight update.
class ApexTrainer {
 public:
  /// `instance` must outlive the trainer. Spawns the service loops
  /// immediately; actors run only inside Run().
  ApexTrainer(const Instance* instance, const ApexConfig& config,
              const AgentConfig& agent_config,
              SimulatorConfig sim_config = {});
  ~ApexTrainer();

  ApexTrainer(const ApexTrainer&) = delete;
  ApexTrainer& operator=(const ApexTrainer&) = delete;

  /// Runs the configured number of episodes (resuming first when
  /// config.resume_from is set) and returns the outcome.
  ApexReport Run();

  /// Copies the learner's current online (policy) weights — the golden
  /// tests' bit-identity witness.
  std::vector<nn::Matrix> PolicyWeights() { return learner_.agent()->ExportPolicyWeights(); }

  DqnFleetAgent* learner_agent() { return learner_.agent(); }
  serve::ModelServer* models() { return &models_; }
  const ApexConfig& config() const { return config_; }
  int episodes_done() const { return episodes_done_; }
  int replay_size() const { return learner_.replay_size(); }

 private:
  ApexReport RunDeterministic();
  ApexReport RunAsync();
  /// Commits one episode's experience into the report + replay.
  void CommitExperience(EpisodeExperience experience, ApexReport* report);
  /// Closes a generation once `episodes_done` episodes are committed: the
  /// learner's update turn, the weight publication, and the periodic
  /// fabric checkpoint.
  void EndGeneration(int episodes_done);
  Status SaveFabricCheckpoint(int episodes_done, uint64_t seq) const;
  Status ResumeFromCheckpoint(const std::string& path);

  const Instance* const instance_;
  ApexConfig config_;
  const AgentConfig agent_config_;
  serve::ModelServer models_;
  std::unique_ptr<serve::DecisionService> service_;
  Learner learner_;
  std::vector<std::unique_ptr<Actor>> actors_;
  int episodes_done_ = 0;
  uint64_t seq_ = 0;        ///< Last published snapshot seq.
  uint64_t generations_ = 0;
};

}  // namespace dpdp::train

#endif  // DPDP_TRAIN_APEX_H_
