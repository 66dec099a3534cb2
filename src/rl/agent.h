#ifndef DPDP_RL_AGENT_H_
#define DPDP_RL_AGENT_H_

#include <iosfwd>

#include "sim/dispatcher.h"
#include "util/status.h"

namespace dpdp {

/// Per-episode training telemetry surfaced to the trainer's metrics.csv
/// time series (obs layer). Agents that don't track a field leave it 0.
struct TrainingStats {
  double loss = 0.0;      ///< Loss of the last minibatch update.
  double epsilon = 0.0;   ///< Exploration rate after the episode.
  double mean_q = 0.0;    ///< Mean greedy Q over the episode's decisions.
  double max_q = 0.0;     ///< Max greedy Q over the episode's decisions.
  int replay_size = 0;    ///< Transitions currently in the replay buffer.
};

/// The RL-layer interface: a Dispatcher whose Act / Observe / Learn
/// explore, record the executed transitions and train, plus the training
/// switch, telemetry and checkpoint hooks. Local training, served
/// inference, actor rollout and headless learner roles are all
/// compositions of this interface (see src/train/).
class Agent : public Dispatcher {
 public:
  /// Training mode enables exploration, transition recording and
  /// episode-end updates. Off by default for evaluation.
  virtual void set_training(bool training) = 0;
  virtual bool training() const = 0;

  /// Telemetry of the most recently finished training episode. Pure
  /// observation — reading it never changes agent state. Default: zeros.
  virtual TrainingStats Stats() const { return TrainingStats{}; }

  /// Called once after the training loop, before greedy evaluation
  /// (e.g. to restore best-episode weights). Default: no-op.
  virtual void FinalizeTraining() {}

  /// Checkpoint hooks (rl/checkpoint.h wraps these in an atomic
  /// CRC-footered file). SaveState must capture *all* mutable training
  /// state — weights, optimizer moments, replay buffer, RNG, schedules —
  /// so that LoadState + continuing training is bit-identical to never
  /// having stopped. Agents that don't support this keep the default,
  /// which fails with kFailedPrecondition.
  virtual Status SaveState(std::ostream* os) const {
    (void)os;
    return Status::FailedPrecondition("agent does not support checkpointing");
  }
  virtual Status LoadState(std::istream* is) {
    (void)is;
    return Status::FailedPrecondition("agent does not support checkpointing");
  }
};

}  // namespace dpdp

#endif  // DPDP_RL_AGENT_H_
