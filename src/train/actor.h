#ifndef DPDP_TRAIN_ACTOR_H_
#define DPDP_TRAIN_ACTOR_H_

#include <cstdint>
#include <vector>

#include "rl/config.h"
#include "rl/replay.h"
#include "serve/dispatch_service.h"
#include "sim/environment.h"

namespace dpdp::train {

struct ActorOptions {
  /// Deterministic replay-order mode: a shed, deadline-expired or
  /// crash-degraded reply would make the rollout depend on wall-clock
  /// scheduling, so any of them is a hard contract violation (DPDP_CHECK)
  /// instead of a silently divergent episode.
  bool deterministic = false;
};

/// Everything one rollout episode produced, returned to the trainer for
/// the ordered replay commit.
struct EpisodeExperience {
  int episode = -1;  ///< Global episode index.
  /// Episode-folded transitions (FoldEpisodeRewards applied), in decision
  /// order — bit-identical to what a local DqnFleetAgent training on the
  /// same decisions would have stored.
  std::vector<Transition> transitions;
  EpisodeResult result;
  /// Highest ModelSnapshot seq that scored a decision of this episode
  /// (0 when every decision explored).
  uint64_t max_model_seq = 0;
  int explore_decisions = 0;
  int served_decisions = 0;
  int sheds = 0;  ///< Async mode only; always 0 under deterministic.
};

/// One rollout actor of the Ape-X fabric: owns an Environment (not a
/// policy network) and generates experience by submitting every greedy
/// decision to the shared DecisionService — inference rides the same
/// micro-batched serving path as production traffic, and weight updates
/// arrive via the ModelServer hot-swap channel with no actor pauses.
///
/// Each episode runs through dpdp::RunEpisode under a rollout dispatcher,
/// so the experience an actor records is bit-identical to what a local
/// DqnFleetAgent would record from the same decisions: the same
/// BuildFleetState features, the same exploration rule (Bernoulli(eps)
/// then a uniform feasible pick) and the same EpisodeRecorder (executed
/// vehicle, refused-decision skip, episode-end reward folding).
class Actor {
 public:
  /// `instance` and `service` must outlive the actor.
  Actor(int id, const Instance* instance, SimulatorConfig sim_config,
        const AgentConfig& agent_config, serve::DecisionService* service,
        ActorOptions options = {});

  /// Runs global episode `episode_index` at exploration rate `epsilon`.
  /// Aligns the environment's disruption stream to the episode index
  /// first (set_episodes_run), so episode e sees the same faults no
  /// matter which actor runs it.
  EpisodeExperience RunEpisode(int episode_index, double epsilon);

  int id() const { return id_; }
  /// Highest snapshot seq observed across this actor's lifetime — the
  /// "actors picked up a published checkpoint" witness.
  uint64_t max_model_seq() const { return max_model_seq_; }

 private:
  const int id_;
  const AgentConfig agent_config_;
  const ActorOptions options_;
  serve::DecisionService* const service_;
  Environment env_;
  uint64_t max_model_seq_ = 0;
};

}  // namespace dpdp::train

#endif  // DPDP_TRAIN_ACTOR_H_
